#include "src/support/diag.h"

#include "src/support/strings.h"

namespace flexrpc {

std::string_view DiagSeverityName(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kError:
      return "error";
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kNote:
      return "note";
  }
  return "?";
}

const std::vector<FlexCodeInfo>& FlexCodeCatalog() {
  static const std::vector<FlexCodeInfo> kCatalog = {
      // --- stage 1: presentation rules (ApplyPdl refuses the errors) ---
      {"FLEX001", DiagSeverity::kError,
       "[trashable] in a server-side presentation"},
      {"FLEX002", DiagSeverity::kError,
       "[preserved] in a client-side presentation"},
      {"FLEX003", DiagSeverity::kError,
       "[length_is] targets a missing or non-integral slot"},
      {"FLEX004", DiagSeverity::kError,
       "[length_is] length travels in the wrong direction"},
      {"FLEX005", DiagSeverity::kError,
       "[dealloc(always)] would free caller-owned [alloc(user)] storage"},
      {"FLEX006", DiagSeverity::kError,
       "[special] on a non-buffer-like type"},
      {"FLEX007", DiagSeverity::kError,
       "[nonunique] on a non-object-reference type"},
      {"FLEX008", DiagSeverity::kError,
       "flatten bindings skip or double-cover a wire item"},
      {"FLEX009", DiagSeverity::kWarning,
       "trust(full) makes a buffer-sharing promise unenforceable"},
      {"FLEX010", DiagSeverity::kWarning,
       "presentation-only slot never referenced by a [length_is]"},
      {"FLEX011", DiagSeverity::kNote,
       "in-buffer neither [trashable] nor [preserved]: elidable copy"},
      {"FLEX012", DiagSeverity::kNote,
       "fixed-size out data forced through move semantics"},
      {"FLEX013", DiagSeverity::kError,
       "a marshaling attribute on an item it cannot apply to"},
      // --- stage 2: marshal-plan verifier ---
      {"FLEX101", DiagSeverity::kError,
       "wire-item stream deviates from IDL order"},
      {"FLEX102", DiagSeverity::kError, "slot index out of range"},
      {"FLEX103", DiagSeverity::kError,
       "[length_is] slot marshaled after the buffer referencing it"},
      {"FLEX104", DiagSeverity::kError,
       "result item not in the final slot"},
      {"FLEX105", DiagSeverity::kError,
       "one slot carries two wire items of a stream (double release)"},
      {"FLEX106", DiagSeverity::kError,
       "flattened item missing a field or discriminant slot"},
      // --- stage 3: flexspec equivalence prover ---
      {"FLEX201", DiagSeverity::kError,
       "specialized stream emits a different number of wire effects"},
      {"FLEX202", DiagSeverity::kError,
       "specialized wire effect has the wrong kind"},
      {"FLEX203", DiagSeverity::kError,
       "specialized wire effect reads or writes the wrong operand"},
      {"FLEX204", DiagSeverity::kError,
       "specialized wire effect violates the length/bound discipline"},
      {"FLEX205", DiagSeverity::kWarning,
       "stream not emitted: past the op budget (reference executor runs "
       "it)"},
      {"FLEX206", DiagSeverity::kError,
       "specialized wire effect has the wrong destination/alloc policy"},
      {"FLEX207", DiagSeverity::kError,
       "specialized union discriminant or arm selection diverges from the "
       "plan"},
  };
  return kCatalog;
}

const FlexCodeInfo* FindFlexCode(std::string_view code) {
  for (const FlexCodeInfo& info : FlexCodeCatalog()) {
    if (info.code == code) {
      return &info;
    }
  }
  return nullptr;
}

DiagSeverity FlexSeverity(std::string_view code) {
  const FlexCodeInfo* info = FindFlexCode(code);
  return info != nullptr ? info->severity : DiagSeverity::kError;
}

std::string Diagnostic::ToString() const {
  std::string out = StrFormat(
      "%s:%d:%d: %s: %s", file.c_str(), pos.line, pos.column,
      std::string(DiagSeverityName(severity)).c_str(), message.c_str());
  if (!code.empty()) {
    out += StrFormat(" [%s]", code.c_str());
  }
  return out;
}

void DiagnosticSink::Report(std::string_view code, std::string file,
                            SourcePos pos, std::string message) {
  Emit(FlexSeverity(code), std::string(code), std::move(file), pos,
       std::move(message));
}

void DiagnosticSink::Emit(DiagSeverity severity, std::string code,
                          std::string file, SourcePos pos,
                          std::string message) {
  if (severity == DiagSeverity::kError) {
    ++error_count_;
  } else if (severity == DiagSeverity::kWarning) {
    ++warning_count_;
  }
  diagnostics_.push_back(Diagnostic{severity, std::move(code),
                                    std::move(file), pos,
                                    std::move(message)});
}

int DiagnosticSink::CountCode(std::string_view code) const {
  int n = 0;
  for (const Diagnostic& diag : diagnostics_) {
    if (diag.code == code) {
      ++n;
    }
  }
  return n;
}

const Diagnostic* DiagnosticSink::FindCode(std::string_view code) const {
  for (const Diagnostic& diag : diagnostics_) {
    if (diag.code == code) {
      return &diag;
    }
  }
  return nullptr;
}

std::string DiagnosticSink::ToString() const {
  std::string out;
  for (const Diagnostic& diag : diagnostics_) {
    out += diag.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace flexrpc
