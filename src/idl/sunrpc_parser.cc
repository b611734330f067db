#include "src/idl/sunrpc_parser.h"

#include <unordered_map>

#include "src/idl/lexer.h"
#include "src/support/strings.h"

namespace flexrpc {

namespace {

class SunRpcParser {
 public:
  SunRpcParser(std::string_view source, std::string filename,
               DiagnosticSink* diags)
      : file_(std::make_unique<InterfaceFile>()),
        cursor_(Tokenize(source, filename, diags), filename, diags) {
    file_->filename = std::move(filename);
  }

  std::unique_ptr<InterfaceFile> Run() {
    while (!cursor_.AtEnd()) {
      ParseDefinition();
    }
    if (cursor_.diags()->HasErrors()) {
      return nullptr;
    }
    return std::move(file_);
  }

 private:
  TypeTable& types() { return file_->types; }

  void ParseDefinition() {
    const Token& tok = cursor_.Peek();
    if (tok.IsIdent("program")) {
      ParseProgram();
    } else if (tok.IsIdent("struct")) {
      ParseStruct();
    } else if (tok.IsIdent("enum")) {
      ParseEnum();
    } else if (tok.IsIdent("union")) {
      ParseUnion();
    } else if (tok.IsIdent("typedef")) {
      ParseTypedef();
    } else if (tok.IsIdent("const")) {
      ParseConst();
    } else {
      cursor_.Error(StrFormat("expected a definition, found '%s'",
                              std::string(tok.text).c_str()));
      cursor_.SkipPast(TokenKind::kSemicolon);
    }
  }

  void ParseProgram() {
    cursor_.Next();  // 'program'
    std::string program_name =
        cursor_.ExpectIdentifier("after 'program'");
    cursor_.Expect(TokenKind::kLBrace, "to open program body");
    std::vector<InterfaceDecl> versions;
    while (cursor_.Peek().IsIdent("version")) {
      versions.push_back(ParseVersion());
    }
    cursor_.Expect(TokenKind::kRBrace, "to close program body");
    cursor_.Expect(TokenKind::kEquals, "before program number");
    uint64_t program_number = ParseConstExpr();
    cursor_.Expect(TokenKind::kSemicolon, "after program");
    for (InterfaceDecl& version : versions) {
      version.program_number = static_cast<uint32_t>(program_number);
      file_->interfaces.push_back(std::move(version));
    }
  }

  InterfaceDecl ParseVersion() {
    InterfaceDecl itf;
    itf.pos = cursor_.Peek().pos;
    cursor_.Next();  // 'version'
    itf.name = cursor_.ExpectIdentifier("after 'version'");
    if (types().FindNamed(itf.name) == nullptr) {
      types().NewObjRef(itf.name);
    }
    cursor_.Expect(TokenKind::kLBrace, "to open version body");
    while (!cursor_.AtEnd() && !cursor_.Peek().Is(TokenKind::kRBrace)) {
      ParseProcedure(&itf);
    }
    cursor_.Expect(TokenKind::kRBrace, "to close version body");
    cursor_.Expect(TokenKind::kEquals, "before version number");
    itf.version_number = static_cast<uint32_t>(ParseConstExpr());
    cursor_.Expect(TokenKind::kSemicolon, "after version");
    return itf;
  }

  void ParseProcedure(InterfaceDecl* itf) {
    OperationDecl op;
    op.pos = cursor_.Peek().pos;
    op.result = ParseTypeSpec();
    if (op.result == nullptr) {
      cursor_.SkipPast(TokenKind::kSemicolon);
      return;
    }
    op.name = cursor_.ExpectIdentifier("as procedure name");
    cursor_.Expect(TokenKind::kLParen, "to open argument list");
    // rpcgen takes a single argument type (or void).
    if (!cursor_.Peek().Is(TokenKind::kRParen)) {
      int arg_index = 1;
      do {
        const Type* arg_type = ParseTypeSpec();
        if (arg_type != nullptr &&
            arg_type->Resolve()->kind() != TypeKind::kVoid) {
          ParamDecl param;
          param.dir = ParamDir::kIn;
          param.name = StrFormat("arg%d", arg_index++);
          param.type = arg_type;
          param.pos = op.pos;
          op.params.push_back(std::move(param));
        }
      } while (cursor_.TryConsume(TokenKind::kComma));
    }
    cursor_.Expect(TokenKind::kRParen, "to close argument list");
    cursor_.Expect(TokenKind::kEquals, "before procedure number");
    op.opnum = static_cast<uint32_t>(ParseConstExpr());
    cursor_.Expect(TokenKind::kSemicolon, "after procedure");
    itf->ops.push_back(std::move(op));
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
      SourcePos field_pos = cursor_.Peek().pos;
      auto [field_type, field_name] = ParseDeclaration();
      cursor_.Expect(TokenKind::kSemicolon, "after struct field");
      if (s != nullptr && field_type != nullptr) {
        cursor_.Check(field_pos,
                      types().AddField(s, std::move(field_name), field_type));
      }
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
        const_values_[member] = value;
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
    // The discriminant declarator name is kept: flattened presentations
    // (paper Fig. 1) refer to it by name.
    std::string disc_name;
    if (cursor_.Peek().Is(TokenKind::kIdentifier)) {
      disc_name = std::string(cursor_.Next().text);
    }
    cursor_.Expect(TokenKind::kRParen, "after union discriminant");
    Type* u = types().NewUnion(name, disc, disc_name);
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
      if (cursor_.TryConsumeIdent("void")) {
        cursor_.Expect(TokenKind::kSemicolon, "after void arm");
        if (u != nullptr) {
          cursor_.Check(arm_pos, types().AddUnionArm(u, label, is_default, "",
                                                     types().Void()));
        }
        continue;
      }
      auto [arm_type, arm_name] = ParseDeclaration();
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

  void ParseTypedef() {
    cursor_.Next();  // 'typedef'
    auto [type, name] = ParseDeclaration();
    cursor_.Expect(TokenKind::kSemicolon, "after typedef");
    if (type != nullptr && !name.empty()) {
      if (types().NewAlias(name, type) == nullptr) {
        cursor_.Error(StrFormat("redefinition of type '%s'", name.c_str()));
      }
    }
  }

  void ParseConst() {
    cursor_.Next();  // 'const'
    ConstDecl decl;
    decl.pos = cursor_.Peek().pos;
    decl.name = cursor_.ExpectIdentifier("as constant name");
    decl.type = types().U32();
    cursor_.Expect(TokenKind::kEquals, "in constant definition");
    decl.value = ParseConstExpr();
    cursor_.Expect(TokenKind::kSemicolon, "after constant");
    const_values_[decl.name] = decl.value;
    file_->constants.push_back(std::move(decl));
  }

  // Parses "type-specifier declarator" where the declarator may carry the
  // RPC-language suffixes `<bound>` (variable length) and `[count]` (fixed).
  // `opaque` and `string` are only legal with a declarator suffix.
  std::pair<const Type*, std::string> ParseDeclaration() {
    const Token& tok = cursor_.Peek();
    bool is_opaque = tok.IsIdent("opaque");
    bool is_string = tok.IsIdent("string");
    const Type* base = nullptr;
    if (is_opaque || is_string) {
      cursor_.Next();
    } else {
      base = ParseTypeSpec();
      if (base == nullptr) {
        return {nullptr, ""};
      }
    }
    if (cursor_.TryConsume(TokenKind::kStar)) {
      cursor_.Error(
          "XDR optional-data ('*') declarators are not supported; use a "
          "variable-length array instead");
    }
    std::string name = cursor_.ExpectIdentifier("as declarator");
    if (cursor_.TryConsume(TokenKind::kLAngle)) {
      uint32_t bound = 0;
      if (!cursor_.Peek().Is(TokenKind::kRAngle)) {
        bound = static_cast<uint32_t>(ParseConstExpr());
      }
      cursor_.Expect(TokenKind::kRAngle, "to close bound");
      if (is_string) {
        return {types().String(bound), std::move(name)};
      }
      const Type* elem = is_opaque ? types().Octet() : base;
      return {types().Sequence(elem, bound), std::move(name)};
    }
    if (cursor_.TryConsume(TokenKind::kLBracket)) {
      uint32_t count = static_cast<uint32_t>(ParseConstExpr());
      cursor_.Expect(TokenKind::kRBracket, "to close array dimension");
      const Type* elem = is_opaque ? types().Octet() : base;
      return {types().Array(elem, count), std::move(name)};
    }
    if (is_opaque || is_string) {
      cursor_.Error("'opaque' and 'string' declarators need <> or []");
      return {nullptr, std::move(name)};
    }
    return {base, std::move(name)};
  }

  uint64_t ParseConstExpr() {
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
      cursor_.Error(StrFormat("unknown constant '%s'", name.c_str()));
      return 0;
    }
    cursor_.Error("expected constant expression");
    cursor_.Next();
    return 0;
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
    if (tok.IsIdent("bool")) {
      cursor_.Next();
      return types().Bool();
    }
    if (tok.IsIdent("char")) {
      cursor_.Next();
      return types().Char();
    }
    if (tok.IsIdent("short")) {
      cursor_.Next();
      return types().I16();
    }
    if (tok.IsIdent("int") || tok.IsIdent("long")) {
      cursor_.Next();
      return types().I32();
    }
    if (tok.IsIdent("hyper")) {
      cursor_.Next();
      return types().I64();
    }
    if (tok.IsIdent("unsigned")) {
      cursor_.Next();
      if (cursor_.TryConsumeIdent("short")) {
        return types().U16();
      }
      if (cursor_.TryConsumeIdent("hyper")) {
        return types().U64();
      }
      // "unsigned", "unsigned int", "unsigned long" are all 32-bit.
      cursor_.TryConsumeIdent("int");
      cursor_.TryConsumeIdent("long");
      return types().U32();
    }
    if (tok.IsIdent("float")) {
      cursor_.Next();
      return types().F32();
    }
    if (tok.IsIdent("double")) {
      cursor_.Next();
      return types().F64();
    }
    if (tok.IsIdent("struct") || tok.IsIdent("enum") ||
        tok.IsIdent("union")) {
      // "struct foo" as a type reference.
      cursor_.Next();
      std::string name = cursor_.ExpectIdentifier("as type name");
      const Type* named = types().FindNamed(name);
      if (named == nullptr) {
        cursor_.Error(StrFormat("unknown type '%s'", name.c_str()));
      }
      return named;
    }
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
  std::unordered_map<std::string, uint64_t> const_values_;
};

}  // namespace

std::unique_ptr<InterfaceFile> ParseSunRpc(std::string_view source,
                                           std::string filename,
                                           DiagnosticSink* diags) {
  return SunRpcParser(source, std::move(filename), diags).Run();
}

}  // namespace flexrpc
