#include "src/codegen/spec_gen.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <set>
#include <utility>

#include "src/analysis/spec_verifier.h"
#include "src/support/strings.h"

namespace flexrpc {

namespace {

// `op` as a C++ literal: designated initializers for its kind and for
// every operand that differs from SpecOp{}'s, in declaration order.
std::string SpecOpLiteral(const SpecOp& op) {
  const SpecOp none;
  std::string out = "{.kind = " + std::string(SpecOpKindName(op.kind));
  if (op.width != none.width) {
    out += StrFormat(", .width = %u", op.width);
  }
  if (op.slot != none.slot) {
    out += StrFormat(", .slot = %d", op.slot);
  }
  if (op.offset != none.offset) {
    out += StrFormat(", .offset = %u", op.offset);
  }
  if (op.count != none.count) {
    out += StrFormat(", .count = %u", op.count);
  }
  if (op.bound != none.bound) {
    out += StrFormat(", .bound = %u", op.bound);
  }
  if (op.len_src != none.len_src) {
    out += ", .len_src = " + std::string(SpecLenSourceName(op.len_src));
  }
  if (op.len_slot != none.len_slot) {
    out += StrFormat(", .len_slot = %d", op.len_slot);
  }
  if (op.label != none.label) {
    out += StrFormat(", .label = %u", op.label);
  }
  if (op.special != none.special) {
    out += ", .special = true";
  }
  if (op.depth != none.depth) {
    out += StrFormat(", .depth = %u", op.depth);
  }
  if (op.stride != none.stride) {
    out += StrFormat(", .stride = %u", op.stride);
  }
  if (!std::equal(std::begin(op.run_bytes), std::end(op.run_bytes),
                  std::begin(none.run_bytes))) {
    out += ", .run_bytes = {";
    for (size_t f = 0; f < kWireFormatCount; ++f) {
      out += StrFormat(f == 0 ? "%u" : ", %u", op.run_bytes[f]);
    }
    out += "}";
  }
  if (op.donated != none.donated) {
    out += ", .donated = true";
  }
  return out + "}";
}

// `text` as a raw string literal, so its bytes need no escaping. The
// delimiter is "src", lengthened to "src1", "src2", ... until
// `)<delimiter>"` does not occur in the text. Each candidate found takes
// at least five bytes of the text, so the delimiter stays far inside the
// 16 characters C++ allows.
std::string RawStringLiteral(std::string_view text) {
  std::string delim = "src";
  for (size_t n = 1; text.find(")" + delim + "\"") != text.npos; ++n) {
    delim = StrFormat("src%zu", n);
  }
  return "R\"" + delim + "(" + std::string(text) + ")" + delim + "\"";
}

// CamelCase stream suffix for generated function names.
std::string StreamFnSuffix(SpecStream stream) {
  switch (stream) {
    case SpecStream::kMarshalRequest:
      return "MarshalRequest";
    case SpecStream::kUnmarshalRequest:
      return "UnmarshalRequest";
    case SpecStream::kMarshalReply:
      return "MarshalReply";
    case SpecStream::kUnmarshalReply:
      return "UnmarshalReply";
    case SpecStream::kReleaseRequest:
      return "ReleaseRequest";
    case SpecStream::kReleaseReply:
      return "ReleaseReply";
  }
  return "Unknown";
}

// One plan selected for emission, with the identity needed for banners.
struct EmitPlan {
  const OperationDecl* op = nullptr;
  SpecPlan plan;
};

class SpecGenerator {
 public:
  SpecGenerator(std::vector<EmitPlan> plans, const SpecGenOptions& options,
                const std::string& source_file)
      : plans_(std::move(plans)),
        options_(options),
        source_file_(source_file) {}

  GeneratedCode Run(std::string_view idl_text,
                    std::string_view client_pdl_text) {
    EmitHeader(idl_text, client_pdl_text);
    EmitSourcePrelude();
    for (size_t i = 0; i < plans_.size(); ++i) {
      EmitPlanFns(i);
    }
    EmitRegistrar();
    return GeneratedCode{std::move(header_), std::move(source_)};
  }

 private:
  void H(const std::string& line) {
    header_ += line;
    header_ += '\n';
  }
  void S(const std::string& line) {
    source_ += line;
    source_ += '\n';
  }

  void EmitHeader(std::string_view idl_text,
                  std::string_view client_pdl_text) {
    std::string guard = "FLEXSPEC_GEN_" + options_.header_name;
    for (char& ch : guard) {
      ch = std::isalnum(static_cast<unsigned char>(ch))
               ? static_cast<char>(
                     std::toupper(static_cast<unsigned char>(ch)))
               : '_';
    }
    guard += '_';
    H("// Generated by idlc --specialize. DO NOT EDIT.");
    H("//");
    H(StrFormat("// flexspec superinstruction unit for %s. Every function",
                source_file_.c_str()));
    H("// registered here was proven byte-for-byte wire-equivalent to its");
    H("// operation's marshal plan by the flexcheck stage-3 verifier");
    H("// (FLEX2xx) before emission.");
    H("");
    H(StrFormat("#ifndef %s", guard.c_str()));
    H(StrFormat("#define %s", guard.c_str()));
    H("");
    H(StrFormat("namespace %s {", options_.ns.c_str()));
    H("");
    H("// The IDL and client PDL texts this unit was generated from, byte");
    H("// for byte (\"\" without a client PDL): a stub binds from them.");
    H("inline constexpr char kIdlSource[] = " + RawStringLiteral(idl_text) +
      ";");
    H("inline constexpr char kClientPdlSource[] = " +
      RawStringLiteral(client_pdl_text) + ";");
    H("");
    H("// Installs every specialization in this unit into the flexspec");
    H("// registry (first registration per key wins; repeat calls are");
    H("// no-ops). A static initializer in the .cc also runs it, but");
    H("// archive linking may drop an unreferenced object file — call this");
    H("// explicitly before building MarshalPrograms to defeat dead-object");
    H("// elision.");
    H("void RegisterSpecializations();");
    H("");
    H(StrFormat("}  // namespace %s", options_.ns.c_str()));
    H("");
    H(StrFormat("#endif  // %s", guard.c_str()));
  }

  void EmitSourcePrelude() {
    S("// Generated by idlc --specialize. DO NOT EDIT.");
    S("");
    S(StrFormat("#include \"%s\"", options_.header_name.c_str()));
    S("");
    S("#include \"src/marshal/spec.h\"");
    S("#include \"src/marshal/spec_ops.h\"");
    S("");
    S(StrFormat("namespace %s {", options_.ns.c_str()));
    S("namespace {");
    S("");
    S("using flexrpc::ArgVec;");
    S("using flexrpc::Arena;");
    S("using flexrpc::MarshalStep;");
    S("using flexrpc::ReleaseStep;");
    S("using flexrpc::SpecialOps;");
    S("using flexrpc::Status;");
    S("using flexrpc::UnmarshalStep;");
    S("using flexrpc::WireReader;");
    S("using flexrpc::WireWriter;");
    S("using enum flexrpc::SpecLenSource;");
    S("using enum flexrpc::SpecOpKind;");
    S("");
  }

  // One registered stream function: a step call per op, with the op as a
  // literal. A branch op (a union's arm selection, a release's ownership
  // guard) is a forward `goto` past the ops SkippedOps says it skips, to a
  // label emitted only where a branch lands. A loop is its kLoop's step
  // call, then a `for` over its body whose increment is its kLoopEnd's
  // NextElement; a stream with a loop keeps the loops' base registers in
  // `loops`, and passes it to the ops that use it (those in a loop, and
  // the loops). Ops outside loops print as they would in a stream without
  // one.
  //
  // A wire stream's body is a template over the concrete codec, one
  // out-of-line instantiation per format, and the registered function
  // calls the one for the wire's format (OnCodec). Its steps share the
  // run pointer each kRun sets. A release stream runs no codec. An empty
  // stream leaves its parameters unnamed.
  void EmitStreamFn(const std::string& fn_name, SpecStream stream,
                    const SpecProgram& prog) {
    const bool release = static_cast<size_t>(stream) >= kWireStreamCount;
    const bool marshal = stream == SpecStream::kMarshalRequest ||
                         stream == SpecStream::kMarshalReply;
    const char* step = release   ? "ReleaseStep"
                       : marshal ? "MarshalStep"
                                 : "UnmarshalStep";
    const char* step_args =
        release   ? "arena, args, donated"
        : marshal ? "args, w, special, &run, &end"
                  : "r, arena, args, special, borrow_bytes, &run, &end";
    const char* branch_args = marshal ? "args" : "*args";
    if (prog.ops.empty()) {
      if (release) {
        S(StrFormat("void %s(Arena*, ArgVec*, bool) {}", fn_name.c_str()));
      } else {
        S(StrFormat("Status %s(%s) {", fn_name.c_str(),
                    marshal ? "const ArgVec&, WireWriter*, const SpecialOps*"
                            : "WireReader*, Arena*, ArgVec*, "
                              "const SpecialOps*, bool"));
        S("  Status end;");
        S("  return end;");
        S("}");
      }
      S("");
      return;
    }
    const size_t n = prog.ops.size();
    auto target = [&](size_t i) {
      return std::min(n, i + 1 + prog.ops[i].count);
    };
    auto is_branch = [](const SpecOp& op) {
      return op.kind == SpecOpKind::kArm || op.kind == SpecOpKind::kArmEnd ||
             op.kind == SpecOpKind::kFreeGuard;
    };
    std::vector<bool> landing(n + 1, false);
    size_t loop_levels = 0;
    for (size_t i = 0; i < n; ++i) {
      const SpecOp& op = prog.ops[i];
      if (is_branch(op)) {
        landing[target(i)] = true;
      } else if (op.kind == SpecOpKind::kLoop) {
        loop_levels = std::max<size_t>(loop_levels, op.depth + 1u);
      }
    }
    if (release) {
      S(StrFormat("void %s(Arena* arena, ArgVec* args, bool donated) {",
                  fn_name.c_str()));
    } else {
      S(marshal ? "template <typename W>" : "template <typename R>");
      S(StrFormat("[[gnu::noinline]] Status %sOn(%s) {", fn_name.c_str(),
                  marshal ? "const ArgVec& args, W* w, "
                            "const SpecialOps* special"
                          : "R* r, Arena* arena, ArgVec* args, "
                            "const SpecialOps* special, bool borrow_bytes"));
      S("  Status end;");
      S(marshal ? "  uint8_t* run = nullptr;"
                : "  const uint8_t* run = nullptr;");
    }
    if (loop_levels > 0) {
      S(StrFormat("  flexrpc::SpecLoop loops[%zu];", loop_levels));
    }
    for (size_t i = 0; i < n; ++i) {
      const SpecOp& op = prog.ops[i];
      const std::string indent(2 + 2 * op.depth, ' ');
      const bool looped = op.depth > 0 || op.kind == SpecOpKind::kLoop;
      if (landing[i]) {
        // A label inside a loop body's end needs a statement after it.
        S(StrFormat(op.kind == SpecOpKind::kLoopEnd ? "op%zu:;" : "op%zu:",
                    i));
      }
      if (op.kind == SpecOpKind::kLoopEnd) {
        S(indent + "}");
      } else if (is_branch(op)) {
        S(StrFormat("%sif (SkippedOps(%s, %s%s%s)) goto op%zu;",
                    indent.c_str(), SpecOpLiteral(op).c_str(), branch_args,
                    looped ? ", loops" : release ? ", nullptr" : "",
                    release ? ", donated" : "", target(i)));
      } else if (release) {
        S(StrFormat("%s%s(%s, %s%s);", indent.c_str(), step,
                    SpecOpLiteral(op).c_str(), step_args,
                    looped ? ", loops" : ""));
      } else {
        S(StrFormat("%sif (!%s(%s, %s%s)) return end;", indent.c_str(),
                    step, SpecOpLiteral(op).c_str(), step_args,
                    looped ? ", loops" : ""));
      }
      if (op.kind == SpecOpKind::kLoop) {
        S(StrFormat("%sfor (; loops[%u].left != 0; NextElement(%s, loops)) {",
                    indent.c_str(), op.depth,
                    SpecOpLiteral(prog.ops[i + 1 + op.count]).c_str()));
      }
    }
    if (landing[n]) {
      S(StrFormat("op%zu:", n));
    }
    if (!release) {
      S("  return end;");
    } else if (landing[n]) {
      S("  return;");
    }
    S("}");
    S("");
    if (release) {
      return;
    }
    S(StrFormat("Status %s(%s) {", fn_name.c_str(),
                marshal ? "const ArgVec& args, WireWriter* w, "
                          "const SpecialOps* special"
                        : "WireReader* r, Arena* arena, ArgVec* args, "
                          "const SpecialOps* special, bool borrow_bytes"));
    S(StrFormat("  return flexrpc::OnCodec(%s, [&](auto* codec) {",
                marshal ? "w" : "r"));
    S(StrFormat("    return %sOn(%s);", fn_name.c_str(),
                marshal ? "args, codec, special"
                        : "codec, arena, args, special, borrow_bytes"));
    S("  });");
    S("}");
    S("");
  }

  void EmitPlanFns(size_t index) {
    const EmitPlan& entry = plans_[index];
    S(StrFormat("// --- %s (key %016llx:%016llx) ---",
                entry.op->name.c_str(),
                static_cast<unsigned long long>(entry.plan.key.op_hash),
                static_cast<unsigned long long>(entry.plan.key.pres_hash)));
    S("");
    for (size_t s = 0; s < kSpecStreamCount; ++s) {
      if (!entry.plan.Emits(s)) {
        continue;
      }
      SpecStream stream = static_cast<SpecStream>(s);
      std::string fn_name =
          StrFormat("Spec%zu%s", index, StreamFnSuffix(stream).c_str());
      EmitStreamFn(fn_name, stream, entry.plan.streams[s]);
    }
  }

  void EmitRegistrar() {
    S("}  // namespace");
    S("");
    S("void RegisterSpecializations() {");
    S("  static const bool registered = [] {");
    for (size_t i = 0; i < plans_.size(); ++i) {
      const EmitPlan& entry = plans_[i];
      S("    {");
      S(StrFormat("      // %s", entry.op->name.c_str()));
      S("      flexrpc::SpecFns fns;");
      static constexpr const char* kFnsField[kSpecStreamCount] = {
          "marshal_request", "unmarshal_request", "marshal_reply",
          "unmarshal_reply", "release_request",   "release_reply"};
      for (size_t s = 0; s < kSpecStreamCount; ++s) {
        if (!entry.plan.Emits(s)) {
          continue;
        }
        S(StrFormat("      fns.%s = &Spec%zu%s;", kFnsField[s], i,
                    StreamFnSuffix(static_cast<SpecStream>(s)).c_str()));
      }
      S("      flexrpc::RegisterSpecialization(");
      S(StrFormat("          flexrpc::SpecKey{0x%016llxull, "
                  "0x%016llxull},",
                  static_cast<unsigned long long>(entry.plan.key.op_hash),
                  static_cast<unsigned long long>(
                      entry.plan.key.pres_hash)));
      S("          fns);");
      S("    }");
    }
    S("    return true;");
    S("  }();");
    S("  (void)registered;");
    S("}");
    S("");
    S("namespace {");
    S("// Registers at load time when this object is linked; see the");
    S("// header comment for why callers should not rely on it alone.");
    S("[[maybe_unused]] const bool kAutoRegistered =");
    S("    (RegisterSpecializations(), true);");
    S("}  // namespace");
    S("");
    S(StrFormat("}  // namespace %s", options_.ns.c_str()));
  }

  std::vector<EmitPlan> plans_;
  const SpecGenOptions& options_;
  std::string source_file_;
  std::string header_;
  std::string source_;
};

}  // namespace

Result<GeneratedCode> GenerateSpecializations(
    const InterfaceFile& idl, const PresentationSet& client_pres,
    const PresentationSet& server_pres, const SpecGenOptions& options,
    const std::string& source_file, std::string_view idl_text,
    std::string_view client_pdl_text, DiagnosticSink* diags,
    SpecGenStats* stats) {
  SpecGenStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }

  // Each side's default presentation is planned beside the one given, so
  // the unit also serves an endpoint that binds the default (the NFS
  // client's conventional stub next to its Figure 1 PDL). Without a PDL
  // the two are the same plans, and `seen` drops the repeats.
  PresentationSet client_default;
  PresentationSet server_default;
  if (!ApplyPdl(idl, Side::kClient, nullptr, &client_default, diags) ||
      !ApplyPdl(idl, Side::kServer, nullptr, &server_default, diags)) {
    return FailedPreconditionError(
        "the default presentation does not apply");
  }
  const PresentationSet* const sets[] = {&client_pres, &client_default,
                                         &server_pres, &server_default};
  std::vector<EmitPlan> plans;
  std::set<SpecKey> seen;
  int verifier_errors = 0;
  for (const InterfaceDecl& itf : idl.interfaces) {
    for (const PresentationSet* set : sets) {
      const InterfacePresentation* pres = set->Find(itf.name);
      if (pres == nullptr) {
        continue;
      }
      for (const OperationDecl& op : itf.ops) {
        const OpPresentation* op_pres = pres->FindOp(op.name);
        if (op_pres == nullptr) {
          continue;
        }
        SpecPlan plan = CompileSpecPlan(op, *op_pres);
        if (seen.count(plan.key) != 0) {
          continue;  // same key already planned (a default, the other side)
        }
        seen.insert(plan.key);
        if (options.mutate_for_test) {
          options.mutate_for_test(&plan);
        }
        // The proof obligation: every stream must be shown
        // wire-equivalent before any code for this unit is emitted.
        verifier_errors += VerifySpecPlan(op, *op_pres, plan, source_file,
                                          diags);
        ReportUnspecializedStreams(plan, source_file, diags);
        if (!plan.EmitsAny()) {
          ++stats->plans_skipped_empty;
          stats->notes.push_back(StrFormat(
              "%s: no stream to emit, all run on the reference executor",
              op.name.c_str()));
          continue;
        }
        for (size_t s = 0; s < kSpecStreamCount; ++s) {
          stats->streams_emitted += plan.Emits(s) ? 1 : 0;
        }
        plans.push_back(EmitPlan{&op, std::move(plan)});
      }
    }
  }
  if (verifier_errors > 0) {
    return FailedPreconditionError(StrFormat(
        "flexspec verifier found %d divergence diagnostic(s); "
        "specialization emission blocked",
        verifier_errors));
  }
  stats->plans_emitted = plans.size();
  return SpecGenerator(std::move(plans), options, source_file)
      .Run(idl_text, client_pdl_text);
}

}  // namespace flexrpc
