// Tests for the OS simulation substrate: address spaces, copyin/copyout,
// port name tables (unique vs nonunique semantics), and the kernel API.

#include <gtest/gtest.h>

#include <cstring>

#include "src/osim/address_space.h"
#include "src/osim/kernel.h"
#include "src/support/rng.h"

namespace flexrpc {
namespace {

TEST(AddressSpaceTest, SpacesAreDisjoint) {
  AddressSpace a("a");
  AddressSpace b("b");
  void* pa = a.Allocate(64);
  void* pb = b.Allocate(64);
  EXPECT_TRUE(a.Owns(pa));
  EXPECT_FALSE(b.Owns(pa));
  EXPECT_TRUE(b.Owns(pb));
  a.Free(pa);
  b.Free(pb);
}

TEST(AddressSpaceTest, CopyToUserValidatesTarget) {
  AddressSpace user("user");
  AddressSpace kernel("kernel");
  void* ubuf = user.Allocate(16);
  void* kbuf = kernel.Allocate(16);
  std::memset(kbuf, 0xAA, 16);

  EXPECT_TRUE(CopyToUser(&user, ubuf, kbuf, 16).ok());
  EXPECT_EQ(static_cast<uint8_t*>(ubuf)[7], 0xAA);

  // A kernel pointer is not a valid user target (and vice versa).
  EXPECT_EQ(CopyToUser(&user, kbuf, kbuf, 16).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(CopyFromUser(&user, kbuf, kbuf, 16).code(),
            StatusCode::kPermissionDenied);
}

TEST(AddressSpaceTest, CopyToUserRejectsARangeRunningPastTheMapping) {
  AddressSpace user("user");
  AddressSpace kernel("kernel");
  auto* ubuf = static_cast<uint8_t*>(user.Allocate(16));
  auto* kbuf = static_cast<uint8_t*>(kernel.Allocate(16));
  std::memset(kbuf, 0xAA, 16);
  // The space has one chunk; find where it ends.
  size_t to_end = 16;
  while (user.Owns(ubuf + to_end)) {
    ++to_end;
  }
  uint8_t* tail = ubuf + to_end - 8;  // its last 8 bytes
  std::memset(tail, 0x11, 8);

  // The first byte is mapped, the last 8 of the 16 are not: access_ok()
  // fails and nothing is copied.
  EXPECT_EQ(CopyToUser(&user, tail, kbuf, 16).code(),
            StatusCode::kPermissionDenied);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(tail[i], 0x11) << "byte " << i;
  }
  EXPECT_EQ(CopyFromUser(&user, kbuf, tail, 16).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(kbuf[0], 0xAA);
  // Exactly to the end of the chunk is in bounds.
  EXPECT_TRUE(CopyToUser(&user, tail, kbuf, 8).ok());
  EXPECT_EQ(tail[7], 0xAA);
}

TEST(AddressSpaceTest, CopyFromUserMovesData) {
  AddressSpace user("user");
  AddressSpace kernel("kernel");
  void* ubuf = user.Allocate(16);
  std::memset(ubuf, 0x55, 16);
  void* kbuf = kernel.Allocate(16);
  EXPECT_TRUE(CopyFromUser(&user, kbuf, ubuf, 16).ok());
  EXPECT_EQ(static_cast<uint8_t*>(kbuf)[3], 0x55);
}

class NameTableTest : public ::testing::Test {
 protected:
  Kernel kernel_;
};

TEST_F(NameTableTest, UniqueInsertCoalesces) {
  Task* task = kernel_.CreateTask("t");
  Port port(1, task);
  PortName n1 = task->names().InsertUnique(&port, RightType::kSend);
  PortName n2 = task->names().InsertUnique(&port, RightType::kSend);
  EXPECT_EQ(n1, n2);  // single name per port: the Mach invariant
  EXPECT_EQ(task->names().size(), 1u);
  auto entry = task->names().Lookup(n1);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->refs, 2u);
}

TEST_F(NameTableTest, NonUniqueInsertAllocatesFreshNames) {
  Task* task = kernel_.CreateTask("t");
  Port port(1, task);
  PortName n1 = task->names().InsertNonUnique(&port, RightType::kSend);
  PortName n2 = task->names().InsertNonUnique(&port, RightType::kSend);
  EXPECT_NE(n1, n2);
  EXPECT_EQ(task->names().size(), 2u);
}

TEST_F(NameTableTest, ReleaseDropsRefsThenName) {
  Task* task = kernel_.CreateTask("t");
  Port port(1, task);
  PortName name = task->names().InsertUnique(&port, RightType::kSend);
  task->names().InsertUnique(&port, RightType::kSend);  // refs = 2
  EXPECT_TRUE(task->names().Release(name).ok());
  EXPECT_EQ(task->names().size(), 1u);  // still referenced
  EXPECT_TRUE(task->names().Release(name).ok());
  EXPECT_EQ(task->names().size(), 0u);
  EXPECT_EQ(task->names().Release(name).code(), StatusCode::kNotFound);
}

TEST_F(NameTableTest, ReleasedNameCanBeReinsertedUniquely) {
  Task* task = kernel_.CreateTask("t");
  Port port(1, task);
  PortName n1 = task->names().InsertUnique(&port, RightType::kSend);
  ASSERT_TRUE(task->names().Release(n1).ok());
  PortName n2 = task->names().InsertUnique(&port, RightType::kSend);
  EXPECT_NE(n2, kInvalidPortName);
  EXPECT_EQ(task->names().size(), 1u);
}

TEST_F(NameTableTest, RefConservationUnderRandomOps) {
  Task* task = kernel_.CreateTask("t");
  std::vector<std::unique_ptr<Port>> ports;
  for (int i = 0; i < 4; ++i) {
    ports.push_back(std::make_unique<Port>(100 + i, task));
  }
  Rng rng(42);
  uint64_t inserts = 0;
  uint64_t releases = 0;
  std::vector<PortName> names;
  for (int step = 0; step < 2000; ++step) {
    if (names.empty() || rng.NextBool()) {
      Port* p = ports[rng.NextBelow(ports.size())].get();
      PortName n = rng.NextBool()
                       ? task->names().InsertUnique(p, RightType::kSend)
                       : task->names().InsertNonUnique(p, RightType::kSend);
      names.push_back(n);
      ++inserts;
    } else {
      size_t pick = rng.NextBelow(names.size());
      ASSERT_TRUE(task->names().Release(names[pick]).ok());
      names.erase(names.begin() + static_cast<long>(pick));
      ++releases;
    }
  }
  EXPECT_EQ(task->names().total_refs(), inserts - releases);
}

TEST(KernelTest, CreatePortInsertsReceiveRight) {
  Kernel kernel;
  Task* task = kernel.CreateTask("t");
  PortName name = kernel.CreatePort(task);
  auto entry = task->names().Lookup(name);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->type, RightType::kReceive);
  EXPECT_EQ(kernel.port_count(), 1u);
}

TEST(KernelTest, MakeSendRightRequiresReceiveRight) {
  Kernel kernel;
  Task* server = kernel.CreateTask("server");
  Task* client = kernel.CreateTask("client");
  PortName recv = kernel.CreatePort(server);
  auto send = kernel.MakeSendRight(server, recv, client);
  ASSERT_TRUE(send.ok());
  auto entry = client->names().Lookup(*send);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->type, RightType::kSend);

  // Deriving from a send right fails.
  auto again = kernel.MakeSendRight(client, *send, server);
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(KernelTest, TransferRightUniqueVsNonUnique) {
  Kernel kernel;
  Task* a = kernel.CreateTask("a");
  Task* b = kernel.CreateTask("b");
  PortName recv = kernel.CreatePort(a);
  auto send = kernel.MakeSendRight(a, recv, a);
  ASSERT_TRUE(send.ok());

  auto t1 = kernel.TransferRight(a, *send, b, /*nonunique=*/false);
  auto t2 = kernel.TransferRight(a, *send, b, /*nonunique=*/false);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t1, *t2);  // unique semantics coalesce

  auto t3 = kernel.TransferRight(a, *send, b, /*nonunique=*/true);
  ASSERT_TRUE(t3.ok());
  EXPECT_NE(*t3, *t1);  // relaxed semantics: a fresh name
}

TEST(KernelTest, TransferOfUnknownNameFails) {
  Kernel kernel;
  Task* a = kernel.CreateTask("a");
  Task* b = kernel.CreateTask("b");
  EXPECT_EQ(kernel.TransferRight(a, 0xDEAD, b, false).status().code(),
            StatusCode::kNotFound);
}

TEST(KernelTest, TrapCountsKernelEntries) {
  Kernel kernel;
  uint64_t before = kernel.trap_count();
  kernel.Trap();
  kernel.Trap();
  EXPECT_EQ(kernel.trap_count(), before + 2);
}

}  // namespace
}  // namespace flexrpc
