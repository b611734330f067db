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

  // What sema knows of a type it has walked: its nesting depth (its
  // sequence, array, struct and union levels; 0 for any other type), its
  // native size in bytes and its expanded node count, the last two held at
  // one past their limits; or that it was refused.
  struct Facts {
    bool refused = false;
    int depth = 0;
    uint64_t size = 0;
    uint64_t nodes = 1;
  };

  // Returns the facts of `type`, refusing it, with the error at `pos`, the
  // use site, when it (transitively) contains a struct or union by value
  // within itself, which has no finite wire size, or when it is past a
  // limit every later walk relies on (ast.h): nesting deeper than
  // kMaxSequenceNesting, a native size over kMaxNativeSize, or more than
  // kMaxTypeNodes nodes. Each type is walked once (`facts_` keeps the
  // verdicts), and the walk itself never goes deeper than the depth bound.
  Facts CheckValueType(const Type* type, SourcePos pos) {
    const Type* t = type->Resolve();
    if (auto known = facts_.find(t); known != facts_.end()) {
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
        inner.push_back(t->discriminant());
        for (const UnionArm& arm : t->arms()) {
          inner.push_back(arm.type);
        }
        break;
      default:
        return Facts{.size = t->NativeSize()};
    }
    if (std::find(path_.begin(), path_.end(), t) != path_.end()) {
      Error(pos, StrFormat("type '%s' recursively contains itself by value",
                           t->ToString().c_str()));
      return Facts{.refused = true};
    }
    // The walk stops at the bound: a type one level past it is refused.
    Facts facts{.depth = kMaxSequenceNesting + 1};
    if (path_.size() < static_cast<size_t>(kMaxSequenceNesting)) {
      path_.push_back(t);
      std::vector<Facts> parts;
      for (size_t i = 0; i < inner.size() && !facts.refused; ++i) {
        parts.push_back(CheckValueType(inner[i], pos));
        facts.refused = parts.back().refused;
      }
      path_.pop_back();
      if (!facts.refused) {
        facts = Combine(t, parts);
      }
    }
    if (!facts.refused) {
      facts.refused = !WithinLimits(t, facts, pos);
    }
    facts_[t] = facts;
    return facts;
  }

  // Reports the first limit `facts` of `t` is past, at `pos`; false then.
  // The depth error names the outermost type on the walk's path.
  bool WithinLimits(const Type* t, const Facts& facts, SourcePos pos) {
    if (facts.depth > kMaxSequenceNesting) {
      const Type* outer = path_.empty() ? t : path_.front();
      Error(pos, StrFormat("type '%s' nests deeper than %d levels",
                           outer->ToString().c_str(), kMaxSequenceNesting));
    } else if (facts.size > kMaxNativeSize) {
      Error(pos, StrFormat("type '%s' is larger than %u bytes in memory",
                           t->ToString().c_str(), kMaxNativeSize));
    } else if (facts.nodes > kMaxTypeNodes) {
      Error(pos, StrFormat("type '%s' expands to more than %u nodes",
                           t->ToString().c_str(), kMaxTypeNodes));
    } else {
      return true;
    }
    return false;
  }

  // The facts of aggregate `t` from those of its parts (struct fields; a
  // union's discriminant, then its arms; an element), laid out as
  // Type::NativeSize lays them out. Each sum stops one past its limit, so
  // none wraps.
  static Facts Combine(const Type* t, const std::vector<Facts>& parts) {
    constexpr uint64_t kSizeCap = uint64_t{kMaxNativeSize} + 1;
    auto align_up = [](uint64_t v, uint64_t align) {
      return (v + align - 1) & ~(align - 1);
    };
    Facts facts{.depth = 1};
    for (const Facts& part : parts) {
      facts.depth = std::max(facts.depth, part.depth + 1);
      facts.nodes = std::min(facts.nodes + part.nodes,
                             uint64_t{kMaxTypeNodes} + 1);
    }
    switch (t->kind()) {
      case TypeKind::kSequence:
        facts.size = t->NativeSize();  // its SeqRep, whatever the element
        break;
      case TypeKind::kArray:
        facts.size = std::min(parts[0].size * t->bound(), kSizeCap);
        break;
      case TypeKind::kStruct:
        for (size_t i = 0; i < parts.size(); ++i) {
          facts.size = std::min(
              align_up(facts.size, t->fields()[i].type->NativeAlign()) +
                  parts[i].size,
              kSizeCap);
        }
        facts.size = align_up(facts.size, t->NativeAlign());
        break;
      default:  // a union: its u32 discriminant, then its largest arm
        for (size_t i = 1; i < parts.size(); ++i) {
          facts.size = std::max(facts.size, parts[i].size);
        }
        facts.size = align_up(align_up(4, t->NativeAlign()) + facts.size,
                              t->NativeAlign());
        break;
    }
    return facts;
  }

  InterfaceFile* file_;
  DiagnosticSink* diags_;
  // The types on the walk's current path, outermost first.
  std::vector<const Type*> path_;
  // Each type CheckValueType has walked, with its facts.
  std::unordered_map<const Type*, Facts> facts_;
};

}  // namespace

bool AnalyzeInterfaceFile(InterfaceFile* file, DiagnosticSink* diags) {
  return Analyzer(file, diags).Run();
}

}  // namespace flexrpc
