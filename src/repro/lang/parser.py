"""Recursive-descent parser for the directive dialect.

One statement per line; FORALL/DO blocks bracketed by END FORALL/END DO.
Grammar sketch::

    program      := { statement NEWLINE }
    statement    := typedecl | decompdecl | distribute | align
                  | construct | set | redistribute | forall | do
    typedecl     := TYPE name '(' expr ')' { ',' name '(' expr ')' }
    decompdecl   := [DYNAMIC ','] DECOMPOSITION namesize { ',' namesize }
    distribute   := DISTRIBUTE name '(' IDENT ')' { ',' ... }
    align        := ALIGN name { ',' name } WITH name
    construct    := CONSTRUCT name '(' expr { ',' clause } ')'
    clause       := GEOMETRY '(' NUMBER ',' names ')'
                  | LOAD '(' name ')'
                  | LINK '(' expr ',' name ',' name ')'
    set          := SET name BY PARTITIONING name USING pname
    redistribute := REDISTRIBUTE name '(' name ')'
    forall       := FORALL name '=' expr ',' expr NEWLINE body END FORALL
    body stmt    := REDUCE '(' op ',' aref ',' expr ')' | aref '=' expr
    expr         := standard precedence climbing over + - * / ** calls
"""

from __future__ import annotations

from repro.lang.ast_nodes import (
    AlignStmt,
    ArrayIndex,
    AssignStmt,
    BinOp,
    Call,
    ConstructStmt,
    DecompositionDecl,
    DistributeStmt,
    DoStmt,
    ForallStmt,
    Num,
    ProgramAST,
    RedistributeStmt,
    ReduceStmt,
    SetStmt,
    TypeDecl,
    UnOp,
    Var,
)
from repro.lang.tokens import Token, TokenKind, tokenize

_TYPE_KEYWORDS = {"REAL", "REAL*4", "REAL*8", "INTEGER", "DOUBLE"}
_REDUCE_OPS = {"ADD", "MULTIPLY", "MIN", "MAX"}
_INTRINSICS = {"SQRT", "EXP", "LOG", "SIN", "COS", "ABS", "MIN", "MAX", "MOD"}


class ParseError(SyntaxError):
    """Raised with line information on any syntax violation."""


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != TokenKind.EOF:
            self.pos += 1
        return tok

    def error(self, msg: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(f"line {tok.line}: {msg} (near {tok.text!r})")

    def expect_op(self, text: str) -> Token:
        tok = self.next()
        if tok.kind != TokenKind.OP or tok.text != text:
            raise self.error(f"expected {text!r}", tok)
        return tok

    def expect_ident(self, *texts: str) -> Token:
        tok = self.next()
        if tok.kind != TokenKind.IDENT:
            raise self.error("expected an identifier", tok)
        if texts and tok.text not in texts:
            raise self.error(f"expected one of {texts}", tok)
        return tok

    def expect_newline(self) -> None:
        tok = self.next()
        if tok.kind not in (TokenKind.NEWLINE, TokenKind.EOF):
            raise self.error("expected end of statement", tok)

    def skip_newlines(self) -> None:
        while self.peek().kind == TokenKind.NEWLINE:
            self.next()

    def at_ident(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == TokenKind.IDENT and tok.text == text

    # -- program ------------------------------------------------------------
    def parse_program(self) -> ProgramAST:
        prog = ProgramAST()
        self.skip_newlines()
        while self.peek().kind != TokenKind.EOF:
            prog.statements.append(self.parse_statement())
            self.skip_newlines()
        return prog

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != TokenKind.IDENT:
            raise self.error("expected a statement keyword")
        kw = tok.text
        if kw in _TYPE_KEYWORDS:
            return self.parse_typedecl()
        if kw in ("DYNAMIC", "DECOMPOSITION"):
            return self.parse_decomposition()
        if kw == "DISTRIBUTE":
            return self.parse_distribute()
        if kw == "ALIGN":
            return self.parse_align()
        if kw == "CONSTRUCT":
            return self.parse_construct()
        if kw == "SET":
            return self.parse_set()
        if kw == "REDISTRIBUTE":
            return self.parse_redistribute()
        if kw == "FORALL":
            return self.parse_forall()
        if kw == "DO":
            return self.parse_do()
        raise self.error(f"unknown statement {kw!r}")

    # -- declarations ---------------------------------------------------------
    def _name_size_list(self) -> list[tuple[str, object]]:
        out = []
        while True:
            name = self.expect_ident().text
            self.expect_op("(")
            size = self.parse_expr()
            self.expect_op(")")
            out.append((name, size))
            if self.peek().kind == TokenKind.OP and self.peek().text == ",":
                self.next()
                continue
            break
        return out

    def parse_typedecl(self) -> TypeDecl:
        tok = self.next()
        type_name = tok.text
        arrays = self._name_size_list()
        self.expect_newline()
        return TypeDecl(type_name=type_name, arrays=arrays, line=tok.line)

    def parse_decomposition(self) -> DecompositionDecl:
        tok = self.peek()
        dynamic = False
        if self.at_ident("DYNAMIC"):
            self.next()
            dynamic = True
            if self.peek().kind == TokenKind.OP and self.peek().text == ",":
                self.next()
        self.expect_ident("DECOMPOSITION")
        decomps = self._name_size_list()
        self.expect_newline()
        return DecompositionDecl(decomps=decomps, dynamic=dynamic, line=tok.line)

    def parse_distribute(self) -> DistributeStmt:
        tok = self.expect_ident("DISTRIBUTE")
        targets = []
        while True:
            name = self.expect_ident().text
            self.expect_op("(")
            fmt = self.expect_ident().text
            self.expect_op(")")
            targets.append((name, fmt))
            if self.peek().kind == TokenKind.OP and self.peek().text == ",":
                self.next()
                continue
            break
        self.expect_newline()
        return DistributeStmt(targets=targets, line=tok.line)

    def parse_align(self) -> AlignStmt:
        tok = self.expect_ident("ALIGN")
        arrays = [self.expect_ident().text]
        while self.peek().kind == TokenKind.OP and self.peek().text == ",":
            self.next()
            arrays.append(self.expect_ident().text)
        self.expect_ident("WITH")
        decomp = self.expect_ident().text
        self.expect_newline()
        return AlignStmt(arrays=arrays, decomp=decomp, line=tok.line)

    # -- directives -------------------------------------------------------------
    def parse_construct(self) -> ConstructStmt:
        tok = self.expect_ident("CONSTRUCT")
        name = self.expect_ident().text
        self.expect_op("(")
        n_vertices = self.parse_expr()
        stmt = ConstructStmt(name=name, n_vertices=n_vertices, line=tok.line)
        while self.peek().kind == TokenKind.OP and self.peek().text == ",":
            self.next()
            clause = self.expect_ident("GEOMETRY", "LOAD", "LINK").text
            self.expect_op("(")
            if clause == "GEOMETRY":
                ndim_tok = self.next()
                if ndim_tok.kind != TokenKind.NUMBER:
                    raise self.error("GEOMETRY needs a dimension count", ndim_tok)
                ndim = int(float(ndim_tok.text))
                names = []
                for _ in range(ndim):
                    self.expect_op(",")
                    names.append(self.expect_ident().text)
                if stmt.geometry is not None:
                    raise self.error("duplicate GEOMETRY clause", ndim_tok)
                stmt.geometry = names
            elif clause == "LOAD":
                if stmt.load is not None:
                    raise self.error("duplicate LOAD clause")
                stmt.load = self.expect_ident().text
            else:  # LINK
                if stmt.link is not None:
                    raise self.error("duplicate LINK clause")
                stmt.link_count = self.parse_expr()
                self.expect_op(",")
                e1 = self.expect_ident().text
                self.expect_op(",")
                e2 = self.expect_ident().text
                stmt.link = (e1, e2)
            self.expect_op(")")
        self.expect_op(")")
        self.expect_newline()
        return stmt

    def parse_set(self) -> SetStmt:
        tok = self.expect_ident("SET")
        target = self.expect_ident().text
        self.expect_ident("BY")
        self.expect_ident("PARTITIONING")
        geocol = self.expect_ident().text
        self.expect_ident("USING")
        pname = self.expect_ident().text
        self.expect_newline()
        return SetStmt(target=target, geocol=geocol, partitioner=pname, line=tok.line)

    def parse_redistribute(self) -> RedistributeStmt:
        tok = self.expect_ident("REDISTRIBUTE")
        decomp = self.expect_ident().text
        self.expect_op("(")
        fmt = self.expect_ident().text
        self.expect_op(")")
        self.expect_newline()
        return RedistributeStmt(decomp=decomp, fmt=fmt, line=tok.line)

    # -- loops --------------------------------------------------------------
    def _loop_header(self) -> tuple[str, object, object]:
        var = self.expect_ident().text
        self.expect_op("=")
        lo = self.parse_expr()
        self.expect_op(",")
        hi = self.parse_expr()
        self.expect_newline()
        return var, lo, hi

    def parse_forall(self) -> ForallStmt:
        tok = self.expect_ident("FORALL")
        var, lo, hi = self._loop_header()
        stmt = ForallStmt(var=var, lo=lo, hi=hi, line=tok.line)
        self.skip_newlines()
        while not (self.at_ident("END")):
            stmt.body.append(self.parse_forall_body_stmt())
            self.skip_newlines()
        self.expect_ident("END")
        self.expect_ident("FORALL")
        self.expect_newline()
        if not stmt.body:
            raise ParseError(f"line {tok.line}: empty FORALL body")
        return stmt

    def parse_forall_body_stmt(self):
        if self.at_ident("REDUCE"):
            tok = self.next()
            self.expect_op("(")
            op = self.expect_ident(*_REDUCE_OPS).text
            self.expect_op(",")
            lhs = self.parse_primary()
            if not isinstance(lhs, ArrayIndex):
                raise self.error("REDUCE target must be an array reference", tok)
            self.expect_op(",")
            expr = self.parse_expr()
            self.expect_op(")")
            self.expect_newline()
            return ReduceStmt(op=op, lhs=lhs, expr=expr, line=tok.line)
        tok = self.peek()
        lhs = self.parse_primary()
        if not isinstance(lhs, ArrayIndex):
            raise self.error("assignment target must be an array reference", tok)
        self.expect_op("=")
        expr = self.parse_expr()
        self.expect_newline()
        return AssignStmt(lhs=lhs, expr=expr, line=tok.line)

    def parse_do(self) -> DoStmt:
        tok = self.expect_ident("DO")
        var, lo, hi = self._loop_header()
        stmt = DoStmt(var=var, lo=lo, hi=hi, line=tok.line)
        self.skip_newlines()
        while not self.at_ident("END"):
            stmt.body.append(self.parse_statement())
            self.skip_newlines()
        self.expect_ident("END")
        self.expect_ident("DO")
        self.expect_newline()
        return stmt

    # -- expressions -----------------------------------------------------------
    def parse_expr(self):
        return self.parse_additive()

    def parse_additive(self):
        node = self.parse_term()
        while self.peek().kind == TokenKind.OP and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op=op, left=node, right=self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_power()
        while self.peek().kind == TokenKind.OP and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op=op, left=node, right=self.parse_power())
        return node

    def parse_power(self):
        node = self.parse_unary()
        if self.peek().kind == TokenKind.OP and self.peek().text == "**":
            self.next()
            return BinOp(op="**", left=node, right=self.parse_power())
        return node

    def parse_unary(self):
        if self.peek().kind == TokenKind.OP and self.peek().text == "-":
            self.next()
            return UnOp(op="-", operand=self.parse_unary())
        if self.peek().kind == TokenKind.OP and self.peek().text == "+":
            self.next()
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self):
        tok = self.next()
        if tok.kind == TokenKind.NUMBER:
            return Num(value=float(tok.text.lower().replace("d", "e")))
        if tok.kind == TokenKind.OP and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if tok.kind != TokenKind.IDENT:
            raise self.error("expected an expression", tok)
        name = tok.text
        if self.peek().kind == TokenKind.OP and self.peek().text == "(":
            self.next()
            args = [self.parse_expr()]
            while self.peek().kind == TokenKind.OP and self.peek().text == ",":
                self.next()
                args.append(self.parse_expr())
            self.expect_op(")")
            if name in _INTRINSICS:
                return Call(func=name, args=tuple(args))
            if len(args) != 1:
                raise self.error(
                    f"array reference {name} takes one subscript", tok
                )
            return ArrayIndex(name=name, index=args[0])
        return Var(name=name)


def parse(source: str) -> ProgramAST:
    """Parse directive-dialect source into a ProgramAST."""
    return _Parser(tokenize(source)).parse_program()
