// Tokenizer shared by the CORBA IDL, Sun RPC language, and PDL front-ends.
//
// Keywords are not distinguished at the lexical level; each parser decides
// which identifiers are reserved, which lets one lexer serve three grammars
// (and matches the paper's PDL rule that "length_is" is reserved only inside
// presentation brackets).

#ifndef FLEXRPC_SRC_IDL_LEXER_H_
#define FLEXRPC_SRC_IDL_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/diag.h"
#include "src/support/status.h"

namespace flexrpc {

enum class TokenKind {
  kEof,
  kIdentifier,
  kIntLiteral,
  kStringLiteral,
  // Punctuation (one token kind each keeps the parsers readable).
  kLBrace,     // {
  kRBrace,     // }
  kLParen,     // (
  kRParen,     // )
  kLBracket,   // [
  kRBracket,   // ]
  kLAngle,     // <
  kRAngle,     // >
  kComma,      // ,
  kSemicolon,  // ;
  kColon,      // :
  kScope,      // ::
  kEquals,     // =
  kStar,       // *
  kPlus,       // +
  kMinus,      // -
  kSlash,      // /
  kPercent,    // %
  kAmp,        // &
  kDot,        // .
};

std::string_view TokenKindName(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string_view text;   // points into the source buffer
  uint64_t int_value = 0;  // valid for kIntLiteral
  std::string string_value;  // valid for kStringLiteral (escapes resolved)
  SourcePos pos;

  bool Is(TokenKind k) const { return kind == k; }
  bool IsIdent(std::string_view name) const {
    return kind == TokenKind::kIdentifier && text == name;
  }
};

// Tokenizes `source` completely. Lexical errors are reported to `diags` and
// the offending characters skipped, so the token stream always ends in kEof.
// The returned tokens reference `source`, which must outlive them.
std::vector<Token> Tokenize(std::string_view source, std::string_view file,
                            DiagnosticSink* diags);

// A cursor over a token stream with the usual recursive-descent helpers.
class TokenCursor {
 public:
  TokenCursor(std::vector<Token> tokens, std::string file,
              DiagnosticSink* diags)
      : tokens_(std::move(tokens)), file_(std::move(file)), diags_(diags) {}

  const Token& Peek(int lookahead = 0) const {
    size_t idx = pos_ + static_cast<size_t>(lookahead);
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }

  const Token& Next() {
    const Token& tok = Peek();
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    } else {
      pos_ = tokens_.size() - 1;  // stay on EOF
    }
    return tok;
  }

  bool TryConsume(TokenKind kind) {
    if (Peek().Is(kind)) {
      Next();
      return true;
    }
    return false;
  }

  bool TryConsumeIdent(std::string_view name) {
    if (Peek().IsIdent(name)) {
      Next();
      return true;
    }
    return false;
  }

  // Consumes a token of `kind` or reports an error (returning false).
  bool Expect(TokenKind kind, std::string_view context);

  // Consumes an identifier token, returning its text; empty on error.
  std::string ExpectIdentifier(std::string_view context);

  void Error(std::string message) {
    diags_->Error(file_, Peek().pos, std::move(message));
  }
  void ErrorAt(SourcePos pos, std::string message) {
    diags_->Error(file_, pos, std::move(message));
  }
  // Reports a declaration the type table refused, at `pos`.
  void Check(SourcePos pos, const Status& status) {
    if (!status.ok()) {
      ErrorAt(pos, status.message());
    }
  }

  bool AtEnd() const { return Peek().Is(TokenKind::kEof); }
  const std::string& file() const { return file_; }
  DiagnosticSink* diags() { return diags_; }

  // Skips tokens until one of `sync` (or EOF); used for error recovery.
  void SkipPast(TokenKind sync);

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::string file_;
  DiagnosticSink* diags_;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_IDL_LEXER_H_
