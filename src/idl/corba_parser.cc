#include "src/idl/corba_parser.h"

#include <unordered_map>

#include "src/idl/lexer.h"
#include "src/support/strings.h"

namespace flexrpc {

namespace {

// IDL keywords that may not be used as identifiers for user declarations.
bool IsReservedWord(std::string_view word) {
  static const char* kReserved[] = {
      "module",  "interface", "typedef", "struct", "enum",   "union",
      "switch",  "case",      "default", "const",  "oneway", "in",
      "out",     "inout",     "void",    "boolean", "octet",  "char",
      "short",   "long",      "unsigned", "float",  "double", "string",
      "sequence"};
  for (const char* r : kReserved) {
    if (word == r) {
      return true;
    }
  }
  return false;
}

class CorbaParser {
 public:
  CorbaParser(std::string_view source, std::string filename,
              DiagnosticSink* diags)
      : file_(std::make_unique<InterfaceFile>()),
        cursor_(Tokenize(source, filename, diags), filename, diags) {
    file_->filename = std::move(filename);
  }

  std::unique_ptr<InterfaceFile> Run() {
    while (!cursor_.AtEnd()) {
      if (cursor_.TryConsumeIdent("module")) {
        ParseModule();
      } else {
        ParseDefinition();
      }
    }
    if (cursor_.diags()->HasErrors()) {
      return nullptr;
    }
    AssignOpNumbers();
    return std::move(file_);
  }

 private:
  TypeTable& types() { return file_->types; }

  void AssignOpNumbers() {
    for (InterfaceDecl& itf : file_->interfaces) {
      uint32_t next = 0;
      for (OperationDecl& op : itf.ops) {
        // Sun front-end assigns explicit procedure numbers; keep them.
        if (op.opnum == 0) {
          op.opnum = next;
        }
        next = op.opnum + 1;
      }
    }
  }

  void ParseModule() {
    std::string name = cursor_.ExpectIdentifier("after 'module'");
    if (!file_->module_name.empty()) {
      cursor_.Error("nested modules are not supported");
    }
    file_->module_name = name;
    cursor_.Expect(TokenKind::kLBrace, "to open module body");
    while (!cursor_.AtEnd() && !cursor_.Peek().Is(TokenKind::kRBrace)) {
      ParseDefinition();
    }
    cursor_.Expect(TokenKind::kRBrace, "to close module body");
    cursor_.TryConsume(TokenKind::kSemicolon);
  }

  void ParseDefinition() {
    const Token& tok = cursor_.Peek();
    if (tok.IsIdent("interface")) {
      ParseInterface();
    } else if (tok.IsIdent("typedef")) {
      ParseTypedef();
    } else if (tok.IsIdent("struct")) {
      ParseStruct();
    } else if (tok.IsIdent("enum")) {
      ParseEnum();
    } else if (tok.IsIdent("union")) {
      ParseUnion();
    } else if (tok.IsIdent("const")) {
      ParseConst();
    } else {
      cursor_.Error(StrFormat("expected a definition, found '%s'",
                              std::string(tok.text).c_str()));
      cursor_.SkipPast(TokenKind::kSemicolon);
    }
  }

  void ParseInterface() {
    SourcePos pos = cursor_.Peek().pos;
    cursor_.Next();  // 'interface'
    std::string name = cursor_.ExpectIdentifier("after 'interface'");
    // Forward declaration: interface Foo;
    if (cursor_.TryConsume(TokenKind::kSemicolon)) {
      if (types().FindNamed(name) == nullptr) {
        types().NewObjRef(name);
      }
      return;
    }

    InterfaceDecl itf;
    itf.name = name;
    itf.pos = pos;
    if (types().FindNamed(name) == nullptr) {
      types().NewObjRef(name);
    }

    if (cursor_.TryConsume(TokenKind::kColon)) {
      do {
        itf.bases.push_back(cursor_.ExpectIdentifier("as base interface"));
      } while (cursor_.TryConsume(TokenKind::kComma));
    }

    cursor_.Expect(TokenKind::kLBrace, "to open interface body");
    while (!cursor_.AtEnd() && !cursor_.Peek().Is(TokenKind::kRBrace)) {
      const Token& tok = cursor_.Peek();
      if (tok.IsIdent("typedef")) {
        ParseTypedef();
      } else if (tok.IsIdent("struct")) {
        ParseStruct();
      } else if (tok.IsIdent("enum")) {
        ParseEnum();
      } else if (tok.IsIdent("union")) {
        ParseUnion();
      } else if (tok.IsIdent("const")) {
        ParseConst();
      } else {
        ParseOperation(&itf);
      }
    }
    cursor_.Expect(TokenKind::kRBrace, "to close interface body");
    cursor_.Expect(TokenKind::kSemicolon, "after interface");
    file_->interfaces.push_back(std::move(itf));
  }

  void ParseOperation(InterfaceDecl* itf) {
    OperationDecl op;
    op.pos = cursor_.Peek().pos;
    op.oneway = cursor_.TryConsumeIdent("oneway");
    op.result = ParseTypeSpec();
    if (op.result == nullptr) {
      cursor_.SkipPast(TokenKind::kSemicolon);
      return;
    }
    op.name = cursor_.ExpectIdentifier("as operation name");
    if (op.name.empty()) {
      cursor_.SkipPast(TokenKind::kSemicolon);
      return;
    }
    cursor_.Expect(TokenKind::kLParen, "to open parameter list");
    if (!cursor_.Peek().Is(TokenKind::kRParen)) {
      do {
        ParamDecl param;
        param.pos = cursor_.Peek().pos;
        if (cursor_.TryConsumeIdent("in")) {
          param.dir = ParamDir::kIn;
        } else if (cursor_.TryConsumeIdent("out")) {
          param.dir = ParamDir::kOut;
        } else if (cursor_.TryConsumeIdent("inout")) {
          param.dir = ParamDir::kInOut;
        } else {
          cursor_.Error("parameter must start with in/out/inout");
        }
        param.type = ParseTypeSpec();
        if (param.type == nullptr) {
          cursor_.SkipPast(TokenKind::kSemicolon);
          return;
        }
        param.name = cursor_.ExpectIdentifier("as parameter name");
        op.params.push_back(std::move(param));
      } while (cursor_.TryConsume(TokenKind::kComma));
    }
    cursor_.Expect(TokenKind::kRParen, "to close parameter list");
    cursor_.Expect(TokenKind::kSemicolon, "after operation");
    if (op.oneway) {
      bool has_outputs = op.result->Resolve()->kind() != TypeKind::kVoid;
      for (const ParamDecl& p : op.params) {
        has_outputs = has_outputs || p.dir != ParamDir::kIn;
      }
      if (has_outputs) {
        cursor_.ErrorAt(op.pos,
                        "oneway operation may not have results or "
                        "out/inout parameters");
      }
    }
    itf->ops.push_back(std::move(op));
  }

  void ParseTypedef() {
    cursor_.Next();  // 'typedef'
    const Type* base = ParseTypeSpec();
    if (base == nullptr) {
      cursor_.SkipPast(TokenKind::kSemicolon);
      return;
    }
    do {
      SourcePos pos = cursor_.Peek().pos;
      std::string name = cursor_.ExpectIdentifier("as typedef name");
      const Type* actual = ParseArraySuffix(base);
      if (IsReservedWord(name) || types().NewAlias(name, actual) == nullptr) {
        cursor_.ErrorAt(pos, StrFormat("redefinition of type '%s'",
                                       name.c_str()));
      }
    } while (cursor_.TryConsume(TokenKind::kComma));
    cursor_.Expect(TokenKind::kSemicolon, "after typedef");
  }

  void ParseStruct() {
    SourcePos pos = cursor_.Peek().pos;
    cursor_.Next();  // 'struct'
    std::string name = cursor_.ExpectIdentifier("after 'struct'");
    Type* s = types().NewStruct(name);
    if (s == nullptr) {
      cursor_.ErrorAt(pos,
                      StrFormat("redefinition of type '%s'", name.c_str()));
    }
    cursor_.Expect(TokenKind::kLBrace, "to open struct body");
    while (!cursor_.AtEnd() && !cursor_.Peek().Is(TokenKind::kRBrace)) {
      const Type* field_type = ParseTypeSpec();
      if (field_type == nullptr) {
        cursor_.SkipPast(TokenKind::kSemicolon);
        continue;
      }
      do {
        SourcePos field_pos = cursor_.Peek().pos;
        std::string field_name = cursor_.ExpectIdentifier("as field name");
        const Type* actual = ParseArraySuffix(field_type);
        if (s != nullptr) {
          cursor_.Check(field_pos,
                        types().AddField(s, std::move(field_name), actual));
        }
      } while (cursor_.TryConsume(TokenKind::kComma));
      cursor_.Expect(TokenKind::kSemicolon, "after struct field");
    }
    cursor_.Expect(TokenKind::kRBrace, "to close struct body");
    cursor_.Expect(TokenKind::kSemicolon, "after struct");
  }

  void ParseEnum() {
    SourcePos pos = cursor_.Peek().pos;
    cursor_.Next();  // 'enum'
    std::string name = cursor_.ExpectIdentifier("after 'enum'");
    Type* e = types().NewEnum(name);
    if (e == nullptr) {
      cursor_.ErrorAt(pos,
                      StrFormat("redefinition of type '%s'", name.c_str()));
    }
    cursor_.Expect(TokenKind::kLBrace, "to open enum body");
    uint32_t next_value = 0;
    do {
      SourcePos member_pos = cursor_.Peek().pos;
      std::string member = cursor_.ExpectIdentifier("as enum member");
      uint32_t value = next_value;
      if (cursor_.TryConsume(TokenKind::kEquals)) {
        value = static_cast<uint32_t>(ParseConstExpr());
      }
      next_value = value + 1;
      if (e != nullptr) {
        cursor_.Check(member_pos, types().AddEnumMember(e, member, value));
        enum_values_[member] = value;
      }
    } while (cursor_.TryConsume(TokenKind::kComma));
    cursor_.Expect(TokenKind::kRBrace, "to close enum body");
    cursor_.Expect(TokenKind::kSemicolon, "after enum");
  }

  void ParseUnion() {
    SourcePos pos = cursor_.Peek().pos;
    cursor_.Next();  // 'union'
    std::string name = cursor_.ExpectIdentifier("after 'union'");
    cursor_.TryConsumeIdent("switch");
    cursor_.Expect(TokenKind::kLParen, "after 'switch'");
    const Type* disc = ParseTypeSpec();
    cursor_.Expect(TokenKind::kRParen, "after union discriminant");
    Type* u = types().NewUnion(name, disc);
    if (u == nullptr) {
      cursor_.ErrorAt(pos,
                      StrFormat("redefinition of type '%s'", name.c_str()));
    }
    cursor_.Expect(TokenKind::kLBrace, "to open union body");
    while (!cursor_.AtEnd() && !cursor_.Peek().Is(TokenKind::kRBrace)) {
      SourcePos arm_pos = cursor_.Peek().pos;
      bool is_default = false;
      uint32_t label = 0;
      if (cursor_.TryConsumeIdent("default")) {
        is_default = true;
        cursor_.Expect(TokenKind::kColon, "after 'default'");
      } else if (cursor_.TryConsumeIdent("case")) {
        label = static_cast<uint32_t>(ParseConstExpr());
        cursor_.Expect(TokenKind::kColon, "after case label");
      } else {
        cursor_.Error("expected 'case' or 'default' in union body");
        cursor_.SkipPast(TokenKind::kSemicolon);
        continue;
      }
      const Type* arm_type = ParseTypeSpec();
      std::string arm_name = cursor_.ExpectIdentifier("as union arm name");
      cursor_.Expect(TokenKind::kSemicolon, "after union arm");
      if (u != nullptr && arm_type != nullptr) {
        cursor_.Check(arm_pos,
                      types().AddUnionArm(u, label, is_default,
                                          std::move(arm_name), arm_type));
      }
    }
    cursor_.Expect(TokenKind::kRBrace, "to close union body");
    cursor_.Expect(TokenKind::kSemicolon, "after union");
  }

  void ParseConst() {
    cursor_.Next();  // 'const'
    ConstDecl decl;
    decl.pos = cursor_.Peek().pos;
    decl.type = ParseTypeSpec();
    decl.name = cursor_.ExpectIdentifier("as constant name");
    cursor_.Expect(TokenKind::kEquals, "in constant definition");
    decl.value = ParseConstExpr();
    cursor_.Expect(TokenKind::kSemicolon, "after constant");
    const_values_[decl.name] = decl.value;
    file_->constants.push_back(std::move(decl));
  }

  // Constant expressions: literals, previously defined constant or enum
  // names, with + and - (sufficient for the IDLs in this repository).
  uint64_t ParseConstExpr() {
    uint64_t value = ParseConstTerm();
    while (true) {
      if (cursor_.TryConsume(TokenKind::kPlus)) {
        value += ParseConstTerm();
      } else if (cursor_.TryConsume(TokenKind::kMinus)) {
        value -= ParseConstTerm();
      } else {
        return value;
      }
    }
  }

  uint64_t ParseConstTerm() {
    const Token& tok = cursor_.Peek();
    if (tok.Is(TokenKind::kIntLiteral)) {
      return cursor_.Next().int_value;
    }
    if (tok.Is(TokenKind::kIdentifier)) {
      std::string name(cursor_.Next().text);
      auto it = const_values_.find(name);
      if (it != const_values_.end()) {
        return it->second;
      }
      auto eit = enum_values_.find(name);
      if (eit != enum_values_.end()) {
        return eit->second;
      }
      cursor_.Error(StrFormat("unknown constant '%s'", name.c_str()));
      return 0;
    }
    cursor_.Error("expected constant expression");
    cursor_.Next();
    return 0;
  }

  // Parses `name[N][M]...` suffixes, wrapping `base` in array types
  // outermost-first (IDL declarator order).
  const Type* ParseArraySuffix(const Type* base) {
    std::vector<uint32_t> dims;
    while (cursor_.TryConsume(TokenKind::kLBracket)) {
      dims.push_back(static_cast<uint32_t>(ParseConstExpr()));
      cursor_.Expect(TokenKind::kRBracket, "to close array dimension");
    }
    const Type* t = base;
    for (auto it = dims.rbegin(); it != dims.rend(); ++it) {
      t = types().Array(t, *it);
    }
    return t;
  }

  const Type* ParseTypeSpec() {
    const Token& tok = cursor_.Peek();
    if (!tok.Is(TokenKind::kIdentifier)) {
      cursor_.Error("expected a type");
      return nullptr;
    }
    if (tok.IsIdent("void")) {
      cursor_.Next();
      return types().Void();
    }
    if (tok.IsIdent("boolean")) {
      cursor_.Next();
      return types().Bool();
    }
    if (tok.IsIdent("octet")) {
      cursor_.Next();
      return types().Octet();
    }
    if (tok.IsIdent("char")) {
      cursor_.Next();
      return types().Char();
    }
    if (tok.IsIdent("short")) {
      cursor_.Next();
      return types().I16();
    }
    if (tok.IsIdent("long")) {
      cursor_.Next();
      if (cursor_.TryConsumeIdent("long")) {
        return types().I64();
      }
      return types().I32();
    }
    if (tok.IsIdent("unsigned")) {
      cursor_.Next();
      if (cursor_.TryConsumeIdent("short")) {
        return types().U16();
      }
      if (cursor_.TryConsumeIdent("long")) {
        if (cursor_.TryConsumeIdent("long")) {
          return types().U64();
        }
        return types().U32();
      }
      cursor_.Error("expected 'short' or 'long' after 'unsigned'");
      return nullptr;
    }
    if (tok.IsIdent("float")) {
      cursor_.Next();
      return types().F32();
    }
    if (tok.IsIdent("double")) {
      cursor_.Next();
      return types().F64();
    }
    if (tok.IsIdent("string")) {
      cursor_.Next();
      uint32_t bound = 0;
      if (cursor_.TryConsume(TokenKind::kLAngle)) {
        bound = static_cast<uint32_t>(ParseConstExpr());
        cursor_.Expect(TokenKind::kRAngle, "to close string bound");
      }
      return types().String(bound);
    }
    if (tok.IsIdent("sequence")) {
      cursor_.Next();
      if (sequence_depth_ == kMaxSequenceNesting) {
        cursor_.Error(StrFormat("sequences nest deeper than %d levels",
                                kMaxSequenceNesting));
        return nullptr;
      }
      cursor_.Expect(TokenKind::kLAngle, "after 'sequence'");
      ++sequence_depth_;
      const Type* element = ParseTypeSpec();
      --sequence_depth_;
      if (element == nullptr) {
        return nullptr;
      }
      uint32_t bound = 0;
      if (cursor_.TryConsume(TokenKind::kComma)) {
        bound = static_cast<uint32_t>(ParseConstExpr());
      }
      cursor_.Expect(TokenKind::kRAngle, "to close sequence");
      return types().Sequence(element, bound);
    }
    // A named type reference.
    std::string name(cursor_.Next().text);
    const Type* named = types().FindNamed(name);
    if (named == nullptr) {
      cursor_.Error(StrFormat("unknown type '%s'", name.c_str()));
      return nullptr;
    }
    return named;
  }

  std::unique_ptr<InterfaceFile> file_;
  TokenCursor cursor_;
  int sequence_depth_ = 0;  // `sequence<` levels open at the cursor
  std::unordered_map<std::string, uint64_t> const_values_;
  std::unordered_map<std::string, uint32_t> enum_values_;
};

}  // namespace

std::unique_ptr<InterfaceFile> ParseCorbaIdl(std::string_view source,
                                             std::string filename,
                                             DiagnosticSink* diags) {
  return CorbaParser(source, std::move(filename), diags).Run();
}

}  // namespace flexrpc
