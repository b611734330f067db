#include "src/analysis/plan_verifier.h"

#include <map>
#include <vector>

#include "src/support/strings.h"

namespace flexrpc {

namespace {

// One slot-carrying unit of a stream, in execution order: a direct item,
// a union discriminant, or one flattened field.
struct Unit {
  int slot = -1;
  const Type* type = nullptr;
  const ParamPresentation* pres = nullptr;
  bool missing = false;  // flattened field with no slot (FLEX106)
};

class PlanVerifier {
 public:
  PlanVerifier(const OperationDecl& op, const OpPresentation& pres,
               const MarshalPlanView& plan, const std::string& file,
               DiagnosticSink* diags)
      : op_(op), pres_(pres), plan_(plan), file_(file), diags_(diags) {}

  int Run() {
    CheckStream("request", plan_.request, ExpectedRequest());
    CheckStream("reply", plan_.reply, ExpectedReply());
    return count_;
  }

 private:
  struct Expected {
    const Type* type = nullptr;
    ParamDir dir = ParamDir::kIn;
    bool is_result = false;
    std::string name;
  };

  void Report(std::string_view code, std::string message) {
    diags_->Report(code, file_, op_.pos, std::move(message));
    ++count_;
  }

  std::vector<Expected> ExpectedRequest() const {
    std::vector<Expected> out;
    for (const ParamDecl& p : op_.params) {
      if (p.dir != ParamDir::kOut) {
        out.push_back(Expected{p.type, p.dir, false, p.name});
      }
    }
    return out;
  }

  std::vector<Expected> ExpectedReply() const {
    std::vector<Expected> out;
    for (const ParamDecl& p : op_.params) {
      if (p.dir != ParamDir::kIn) {
        out.push_back(Expected{p.type, p.dir, false, p.name});
      }
    }
    if (op_.result->Resolve()->kind() != TypeKind::kVoid) {
      out.push_back(Expected{op_.result, ParamDir::kOut, true, "return"});
    }
    return out;
  }

  void CheckStream(const char* stream_name,
                   const std::vector<PlanItemView>& items,
                   const std::vector<Expected>& expected) {
    // FLEX101: the stream must carry exactly the interface's wire items,
    // in IDL order. This is the invariant that keeps differently-presented
    // endpoints interoperable byte-for-byte.
    if (items.size() != expected.size()) {
      Report("FLEX101",
             StrFormat("%s stream of '%s' carries %zu wire items, the "
                       "interface defines %zu",
                       stream_name, op_.name.c_str(), items.size(),
                       expected.size()));
    }
    size_t n = std::min(items.size(), expected.size());
    for (size_t i = 0; i < n; ++i) {
      const PlanItemView& item = items[i];
      const Expected& want = expected[i];
      if (item.type != want.type || item.dir != want.dir ||
          item.is_result != want.is_result) {
        Report("FLEX101",
               StrFormat("%s item %zu of '%s' should carry '%s' (%s %s) "
                         "but the plan deviates",
                         stream_name, i, op_.name.c_str(),
                         want.name.c_str(),
                         std::string(ParamDirName(want.dir)).c_str(),
                         want.type->ToString().c_str()));
      }
    }

    // Flatten the stream into slot-carrying units in execution order.
    std::vector<Unit> units;
    for (const PlanItemView& item : items) {
      if (!item.flattened) {
        units.push_back(Unit{item.slot, item.type, item.pres, false});
        if (item.is_result && item.slot >= 0 &&
            item.slot != static_cast<int>(plan_.slot_count) - 1) {
          Report("FLEX104",
                 StrFormat("result of '%s' is in slot %d, not the final "
                           "slot %zu",
                           op_.name.c_str(), item.slot,
                           plan_.slot_count - 1));
        }
        continue;
      }
      bool union_result =
          item.is_result && item.type != nullptr &&
          item.type->Resolve()->kind() == TypeKind::kUnion;
      if (union_result) {
        if (item.disc_slot < 0) {
          Report("FLEX106",
                 StrFormat("flattened union result of '%s' has no "
                           "discriminant slot",
                           op_.name.c_str()));
        } else {
          units.push_back(Unit{item.disc_slot, nullptr, nullptr, false});
        }
      }
      for (size_t fi = 0; fi < item.fields.size(); ++fi) {
        const PlanFieldView& field = item.fields[fi];
        if (field.slot < 0 || field.type == nullptr) {
          Report("FLEX106",
                 StrFormat("flattened item of '%s' has no slot for field "
                           "%zu: the wire item would be skipped",
                           op_.name.c_str(), fi));
          units.push_back(Unit{-1, field.type, field.pres, true});
        } else {
          units.push_back(Unit{field.slot, field.type, field.pres, false});
        }
      }
    }

    // FLEX102 / FLEX105: slot range and per-stream uniqueness.
    std::map<int, size_t> first_at;  // slot -> unit index
    for (size_t u = 0; u < units.size(); ++u) {
      if (units[u].missing) {
        continue;
      }
      int slot = units[u].slot;
      if (slot < 0 || slot >= static_cast<int>(plan_.slot_count)) {
        Report("FLEX102",
               StrFormat("%s stream of '%s' addresses slot %d outside the "
                         "argument vector (%zu slots)",
                         stream_name, op_.name.c_str(), slot,
                         plan_.slot_count));
        continue;
      }
      auto [it, inserted] = first_at.emplace(slot, u);
      if (!inserted) {
        Report("FLEX105",
               StrFormat("slot %d carries two wire items of the %s stream "
                         "of '%s'; release would free it twice",
                         slot, stream_name, op_.name.c_str()));
      }
    }

    // FLEX103: a length carried on the wire must precede its buffer.
    for (size_t u = 0; u < units.size(); ++u) {
      const ParamPresentation* p = units[u].pres;
      if (p == nullptr || !p->explicit_length) {
        continue;
      }
      int len_slot = pres_.SlotOf(p->length_param);
      if (len_slot < 0) {
        continue;  // stage 1 reports the dangling name (FLEX003)
      }
      auto it = first_at.find(len_slot);
      if (it != first_at.end() && it->second >= u) {
        Report("FLEX103",
               StrFormat("buffer '%s' of '%s' reads [length_is(%s)] from "
                         "slot %d, which the %s stream marshals at or "
                         "after the buffer itself",
                         p->name.c_str(), op_.name.c_str(),
                         p->length_param.c_str(), len_slot, stream_name));
      }
    }
  }

  const OperationDecl& op_;
  const OpPresentation& pres_;
  const MarshalPlanView& plan_;
  const std::string& file_;
  DiagnosticSink* diags_;
  int count_ = 0;
};

}  // namespace

int VerifyMarshalPlan(const OperationDecl& op, const OpPresentation& pres,
                      const MarshalPlanView& plan, const std::string& file,
                      DiagnosticSink* diags) {
  return PlanVerifier(op, pres, plan, file, diags).Run();
}

int VerifyProgram(const MarshalProgram& program, const std::string& file,
                  DiagnosticSink* diags) {
  return VerifyMarshalPlan(program.op(), program.presentation(),
                           program.Plan(), file, diags);
}

}  // namespace flexrpc
