// Abstract syntax for interface definitions, shared by all front-ends.
//
// Front-ends (CORBA IDL, Sun RPC language) populate an InterfaceFile; the
// presentation layer and back-ends consume it. The AST deliberately models
// only the *network contract*: how parameters appear to C++ callers is the
// presentation layer's concern (src/pdl/).

#ifndef FLEXRPC_SRC_IDL_AST_H_
#define FLEXRPC_SRC_IDL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "src/idl/types.h"
#include "src/support/diag.h"

namespace flexrpc {

// Deepest nesting of value types accepted. ParseCorbaIdl refuses
// `sequence<` nested deeper, since it recurses once per level; sema refuses
// any type an operation reaches that nests deeper (its sequence, array,
// struct and union levels, typedefs followed), so the marshal code and
// every other recursive walk of such a type stays as shallow.
inline constexpr int kMaxSequenceNesting = 64;

// Largest native size, in bytes, of a type an operation reaches: sema
// refuses a larger one. An arena block this large is its own size class
// and, with its header, still fits an arena at Arena::kDefaultCapacity
// (64 MiB); every offset and element stride inside such a value fits a
// u32. The unmarshal of a sequence refuses a count whose storage (count ×
// element size) is larger.
inline constexpr uint32_t kMaxNativeSize = 32u << 20;

// Most nodes a tree walk of one type an operation reaches may visit: sema
// refuses more. The walk visits every struct, union, discriminant, field,
// arm, sequence, array and leaf on each path, and an array's or a
// sequence's element once, whatever its count. So a type whose subtypes
// are shared (a DAG) counts each path. The bound holds every walk after
// sema to a few thousand steps per type: the wire signature, the SpecKey
// hash, the presentation merge and the compiled marshal stream, which
// unrolls each struct and union.
inline constexpr uint32_t kMaxTypeNodes = 4096;

enum class ParamDir { kIn, kOut, kInOut };

std::string_view ParamDirName(ParamDir dir);

struct ParamDecl {
  ParamDir dir = ParamDir::kIn;
  std::string name;
  const Type* type = nullptr;
  SourcePos pos;
};

struct OperationDecl {
  std::string name;
  const Type* result = nullptr;  // kVoid for no return value
  std::vector<ParamDecl> params;
  bool oneway = false;
  SourcePos pos;

  // Stable identifier assigned by sema: position within the interface.
  uint32_t opnum = 0;

  const ParamDecl* FindParam(std::string_view param_name) const {
    for (const ParamDecl& p : params) {
      if (p.name == param_name) {
        return &p;
      }
    }
    return nullptr;
  }
};

struct InterfaceDecl {
  std::string name;
  std::vector<std::string> bases;  // names of inherited interfaces
  std::vector<OperationDecl> ops;
  SourcePos pos;
  // Sun RPC origin information (program/version numbers), 0 for CORBA input.
  uint32_t program_number = 0;
  uint32_t version_number = 0;

  const OperationDecl* FindOp(std::string_view op_name) const {
    for (const OperationDecl& op : ops) {
      if (op.name == op_name) {
        return &op;
      }
    }
    return nullptr;
  }
};

struct ConstDecl {
  std::string name;
  const Type* type = nullptr;
  uint64_t value = 0;
  SourcePos pos;
};

// One parsed interface-definition file: the unit both the PDL stage and the
// back-ends operate on.
struct InterfaceFile {
  std::string filename;
  std::string module_name;  // optional enclosing module
  TypeTable types;
  std::vector<InterfaceDecl> interfaces;
  std::vector<ConstDecl> constants;

  const InterfaceDecl* FindInterface(std::string_view name) const {
    for (const InterfaceDecl& itf : interfaces) {
      if (itf.name == name) {
        return &itf;
      }
    }
    return nullptr;
  }

  InterfaceDecl* FindInterfaceMutable(std::string_view name) {
    for (InterfaceDecl& itf : interfaces) {
      if (itf.name == name) {
        return &itf;
      }
    }
    return nullptr;
  }
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_IDL_AST_H_
