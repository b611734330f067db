// Shared diagnostics machinery for the IDL and PDL front-ends and the
// flexcheck stages.
//
// Parsers report errors through a DiagnosticSink rather than aborting, so a
// single compiler run can surface multiple problems, and tests can assert on
// exact diagnostic locations. Every stable FLEXnnn code, with its one
// severity, is listed in the catalog below; DiagnosticSink::Report takes
// the severity from it.

#ifndef FLEXRPC_SRC_SUPPORT_DIAG_H_
#define FLEXRPC_SRC_SUPPORT_DIAG_H_

#include <string>
#include <string_view>
#include <vector>

namespace flexrpc {

// 1-based line/column position within a named source buffer.
struct SourcePos {
  int line = 1;
  int column = 1;

  bool operator==(const SourcePos&) const = default;
};

enum class DiagSeverity { kError, kWarning, kNote };

std::string_view DiagSeverityName(DiagSeverity severity);

// One entry of the stable diagnostic catalog. Codes never change meaning
// once shipped; DESIGN.md §8 documents the rationale for each.
struct FlexCodeInfo {
  std::string_view code;
  DiagSeverity severity = DiagSeverity::kError;
  std::string_view summary;
};

// Every FLEX code the presentation rules (src/pdl/lint.h), the marshal-plan
// verifier and the flexspec prover can emit, in code order.
const std::vector<FlexCodeInfo>& FlexCodeCatalog();

// Catalog lookup; null for unknown codes.
const FlexCodeInfo* FindFlexCode(std::string_view code);

// The catalog's severity for `code`; an unknown code is an error.
DiagSeverity FlexSeverity(std::string_view code);

struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  // Stable machine-checkable code ("FLEX001"); empty for ad-hoc parser
  // diagnostics. Codes never change meaning once shipped.
  std::string code;
  std::string file;
  SourcePos pos;
  std::string message;

  // "file:line:col: error: message [CODE]"
  std::string ToString() const;
};

class DiagnosticSink {
 public:
  void Error(std::string file, SourcePos pos, std::string message) {
    Add(DiagSeverity::kError, std::move(file), pos, std::move(message));
  }
  void Warning(std::string file, SourcePos pos, std::string message) {
    Add(DiagSeverity::kWarning, std::move(file), pos, std::move(message));
  }
  void Note(std::string file, SourcePos pos, std::string message) {
    Add(DiagSeverity::kNote, std::move(file), pos, std::move(message));
  }

  void Add(DiagSeverity severity, std::string file, SourcePos pos,
           std::string message) {
    Emit(severity, /*code=*/"", std::move(file), pos, std::move(message));
  }

  // A coded diagnostic (FLEXnnn), at the catalog's severity for `code`.
  void Report(std::string_view code, std::string file, SourcePos pos,
              std::string message);

  bool HasErrors() const { return error_count_ > 0; }
  bool HasWarnings() const { return warning_count_ > 0; }
  int error_count() const { return error_count_; }
  int warning_count() const { return warning_count_; }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  // Occurrences of a coded diagnostic; the machine-checkable test interface.
  int CountCode(std::string_view code) const;
  const Diagnostic* FindCode(std::string_view code) const;

  // All diagnostics joined with newlines; convenient for test failure output.
  std::string ToString() const;

 private:
  void Emit(DiagSeverity severity, std::string code, std::string file,
            SourcePos pos, std::string message);

  std::vector<Diagnostic> diagnostics_;
  int error_count_ = 0;
  int warning_count_ = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_DIAG_H_
