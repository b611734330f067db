#include "src/idl/sema.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/support/strings.h"

namespace flexrpc {

namespace {

class Analyzer {
 public:
  Analyzer(InterfaceFile* file, DiagnosticSink* diags)
      : file_(file), diags_(diags) {}

  bool Run() {
    CheckDuplicateInterfaces();
    FlattenInheritance();
    for (const InterfaceDecl& itf : file_->interfaces) {
      CheckInterface(itf);
    }
    return !diags_->HasErrors();
  }

 private:
  void Error(SourcePos pos, std::string message) {
    diags_->Error(file_->filename, pos, std::move(message));
  }

  void CheckDuplicateInterfaces() {
    std::unordered_set<std::string> seen;
    for (const InterfaceDecl& itf : file_->interfaces) {
      if (!seen.insert(itf.name).second) {
        Error(itf.pos,
              StrFormat("duplicate interface '%s'", itf.name.c_str()));
      }
    }
  }

  // Copies base-interface operations (recursively) ahead of each derived
  // interface's own operations, renumbering all opnums to keep them unique.
  // Works against a snapshot of the original declarations so that diamond
  // bases contribute exactly once even after earlier interfaces in the file
  // have already been flattened in place.
  void FlattenInheritance() {
    std::vector<InterfaceDecl> snapshot = file_->interfaces;
    std::unordered_map<std::string, const InterfaceDecl*> by_name;
    for (const InterfaceDecl& itf : snapshot) {
      by_name[itf.name] = &itf;
    }
    for (InterfaceDecl& itf : file_->interfaces) {
      if (itf.bases.empty()) {
        continue;
      }
      std::vector<OperationDecl> flattened;
      std::set<std::string> visited;
      bool ok = true;
      for (const std::string& base : itf.bases) {
        ok = CollectBaseOps(base, itf, by_name, &visited, &flattened) && ok;
      }
      if (!ok) {
        continue;
      }
      for (OperationDecl& op : itf.ops) {
        flattened.push_back(std::move(op));
      }
      for (size_t i = 0; i < flattened.size(); ++i) {
        flattened[i].opnum = static_cast<uint32_t>(i);
      }
      itf.ops = std::move(flattened);
      itf.bases.clear();
    }
  }

  bool CollectBaseOps(
      const std::string& base_name, const InterfaceDecl& derived,
      const std::unordered_map<std::string, const InterfaceDecl*>& by_name,
      std::set<std::string>* visited, std::vector<OperationDecl>* out) {
    if (base_name == derived.name) {
      Error(derived.pos, StrFormat("interface '%s' inherits from itself",
                                   derived.name.c_str()));
      return false;
    }
    if (!visited->insert(base_name).second) {
      return true;  // diamond inheritance: each base contributes once
    }
    auto it = by_name.find(base_name);
    if (it == by_name.end()) {
      Error(derived.pos, StrFormat("unknown base interface '%s'",
                                   base_name.c_str()));
      return false;
    }
    const InterfaceDecl* base = it->second;
    bool ok = true;
    for (const std::string& grand : base->bases) {
      ok = CollectBaseOps(grand, derived, by_name, visited, out) && ok;
    }
    for (const OperationDecl& op : base->ops) {
      out->push_back(op);
    }
    return ok;
  }

  void CheckInterface(const InterfaceDecl& itf) {
    std::unordered_set<std::string> op_names;
    std::unordered_set<uint32_t> op_numbers;
    for (const OperationDecl& op : itf.ops) {
      if (!op_names.insert(op.name).second) {
        Error(op.pos, StrFormat("duplicate operation '%s' in interface '%s'",
                                op.name.c_str(), itf.name.c_str()));
      }
      if (!op_numbers.insert(op.opnum).second) {
        Error(op.pos,
              StrFormat("duplicate procedure number %u in interface '%s'",
                        op.opnum, itf.name.c_str()));
      }
      CheckOperation(itf, op);
    }
  }

  void CheckOperation(const InterfaceDecl& itf, const OperationDecl& op) {
    std::unordered_set<std::string> param_names;
    for (const ParamDecl& param : op.params) {
      if (!param_names.insert(param.name).second) {
        Error(param.pos,
              StrFormat("duplicate parameter '%s' in operation '%s::%s'",
                        param.name.c_str(), itf.name.c_str(),
                        op.name.c_str()));
      }
      if (param.type->Resolve()->kind() == TypeKind::kVoid) {
        Error(param.pos,
              StrFormat("parameter '%s' may not have type void",
                        param.name.c_str()));
      }
      CheckValueType(param.type, param.pos);
    }
    if (op.result != nullptr) {
      CheckValueType(op.result, op.pos);
    }
  }

  // Returns the nesting depth of `type` (its sequence, array, struct and
  // union levels; 0 for any other type), or -1 once it is refused, with
  // the error at `pos`, the use site. A struct or union that
  // (transitively) contains itself by value has no finite wire size, and
  // a type nested deeper than kMaxSequenceNesting would take every
  // recursive walk of it as deep: both are refused. Each type is walked
  // once (`depth_` keeps the verdicts), and the walk itself never goes
  // deeper than the bound.
  int CheckValueType(const Type* type, SourcePos pos) {
    const Type* t = type->Resolve();
    if (auto known = depth_.find(t); known != depth_.end()) {
      return known->second;
    }
    std::vector<const Type*> inner;
    switch (t->kind()) {
      case TypeKind::kSequence:
      case TypeKind::kArray:
        inner.push_back(t->element());
        break;
      case TypeKind::kStruct:
        for (const StructField& f : t->fields()) {
          inner.push_back(f.type);
        }
        break;
      case TypeKind::kUnion:
        for (const UnionArm& arm : t->arms()) {
          inner.push_back(arm.type);
        }
        break;
      default:
        return 0;
    }
    if (std::find(path_.begin(), path_.end(), t) != path_.end()) {
      Error(pos, StrFormat("type '%s' recursively contains itself by value",
                           t->ToString().c_str()));
      return -1;
    }
    // The walk stops at the bound: a type one level past it is refused.
    int depth = kMaxSequenceNesting + 1;
    if (path_.size() < static_cast<size_t>(kMaxSequenceNesting)) {
      path_.push_back(t);
      depth = 1;
      for (size_t i = 0; i < inner.size() && depth > 0; ++i) {
        const int d = CheckValueType(inner[i], pos);
        depth = d < 0 ? -1 : std::max(depth, d + 1);
      }
      path_.pop_back();
    }
    if (depth > kMaxSequenceNesting) {
      const Type* outer = path_.empty() ? t : path_.front();
      Error(pos, StrFormat("type '%s' nests deeper than %d levels",
                           outer->ToString().c_str(), kMaxSequenceNesting));
      depth = -1;
    }
    depth_[t] = depth;
    return depth;
  }

  InterfaceFile* file_;
  DiagnosticSink* diags_;
  // The types on the walk's current path, outermost first.
  std::vector<const Type*> path_;
  // Each type CheckValueType has walked: its depth, or -1 if refused.
  std::unordered_map<const Type*, int> depth_;
};

}  // namespace

bool AnalyzeInterfaceFile(InterfaceFile* file, DiagnosticSink* diags) {
  return Analyzer(file, diags).Run();
}

}  // namespace flexrpc
