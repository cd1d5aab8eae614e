"""Parser and canonical printer for the ``.dsa`` model language.

A ``.dsa`` file holds exactly one ``system "<name>" { ... }`` block.  Each
statement inside the block declares one element; keyed entries inside a
statement either set attrs (``yields_user_value:``, ``runs_on:``, ...) or
declare relations (``by:``, ``serves:``, ``realized_by:``, ``uses:``,
``about:``, ``influences:``).  ``function`` entries nest a component function
and create its realization edge.  ``model.STATEMENTS`` lists every statement
and entry; the lexer, the parser and the printer read it.

Parsing is total: arbitrary input yields diagnostics, never an exception.
``format_model`` prints the canonical form: two-space indents, elements in
insertion order, entries in table order, LF line endings, and a trailing
newline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .model import (
    ALL_LEAVES,
    STATEMENTS,
    AlignmentModel,
    Diagnostic,
    ElementKind,
    ModelError,
    RelationKind,
    SEVERITY_LEVELS,
    DEFAULT_RISK_SEVERITY,
    Entry,
    Severity,
    SourceSpan,
    XML_FORBIDDEN,
    is_leaf,
    is_valid_id,
)

# Lookups derived once from the statement table.  ``actor`` maps to None: the
# role word after it picks the kind.
_STATEMENT_KINDS = {s.keyword: None if s.role else kind for kind, s in STATEMENTS.items()}
_ROLE_KINDS = {s.role: kind for kind, s in STATEMENTS.items() if s.role}
STATEMENT_KEYWORDS = frozenset(_STATEMENT_KINDS)
KEYWORDS = (
    STATEMENT_KEYWORDS
    | frozenset(_ROLE_KINDS)
    | {"system", "severity"}
    | {key for s in STATEMENTS.values() for key in s.entries}
)

# Nested entries: the kind they declare -> (entry key, owner's keyword).
_NESTED = {
    entry.nested: (key, s.keyword)
    for s in STATEMENTS.values()
    for key, entry in s.entries.items()
    if entry.nested
}
_NESTED_OWNER = dict(_NESTED.values())

# (relation kind, owner kind, owner is source) -> (entry key, entry), for the
# printer.  An association is undirected, so it prints under an owner at
# either end; the printer tries the source end first.
_ENTRY_OF_RELATION = {
    (entry.relation, kind, side): (key, entry)
    for kind, s in STATEMENTS.items()
    for key, entry in s.entries.items()
    if entry.relation is not None
    for side in (
        (True, False) if entry.relation is RelationKind.ASSOCIATION else (entry.owner_is_source,)
    )
}

# Surface words of implies_cost mapped to the cost leaves they denote.
COST_WORDS = {
    "human": "human_resources",
    "information": "information_resources",
    "it": "it_resources",
}
_COST_LEAF_TO_WORD = {leaf: word for word, leaf in COST_WORDS.items()}


@dataclass
class ParseResult:
    """Outcome of a parse: the model is present iff there are no errors.

    ``spans`` maps element ids to their declaration sites so callers can
    anchor model-level diagnostics back into the source file.
    """

    model: AlignmentModel | None
    diagnostics: list[Diagnostic]
    spans: dict[str, SourceSpan] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.model is not None


# ---------------------------------------------------------------------------
# Lexer


_PUNCT = {"{": "lbrace", "}": "rbrace", ":": "colon", ";": "semi", ",": "comma"}

# One alternative per lexeme, tried in order ("Writing a Tokenizer" in the
# ``re`` docs), each match taking the blanks after its lexeme with it.  ``\w``
# matches exactly the characters for which ``isalnum() or == "_"`` holds.  A
# string runs to its closing quote or to the end of the line; a backslash
# escapes only a quote or a backslash, and a lone backslash is left for
# ``_string_value`` to report.
_TOKEN_RE = re.compile(
    "(?:"
    + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("word", r"\w+"),
            ("newline", r"\n"),
            ("punct", r"[{}:;,]"),
            ("string", r'"(?P<body>[^"\\\n]*(?:\\["\\]?[^"\\\n]*)*)(?P<close>"?)'),
            ("comment", r"#[^\n]*"),
            ("bad", r"."),
        )
    )
    + r")[ \t\r]*",
    re.DOTALL,
)

# Compiled on first use and cached by ``re``: compiling the forbidden class
# costs about 1 ms, which every CLI run would otherwise pay at import.
_STRING_PIECE = f'\\\\(["\\\\])?|[{XML_FORBIDDEN}]'


def _string_value(
    text: str, start: int, end: int, quote: SourceSpan, diags: list[Diagnostic]
) -> str:
    """Unescape the string body ``text[start:end]``, reporting E107 and E108.

    ``quote`` is the span of the string's opening quote, at ``start - 1``.
    A lone backslash is dropped and reported with the character after it; a
    forbidden character is kept and reported.
    """

    def piece(m: re.Match) -> str:
        if m.group(1):
            return m.group(1)
        ch = m.group()
        if ch == "\\":
            nxt = text[start + m.end() : start + m.end() + 1]
            shown = f"\\{nxt}" if nxt.isprintable() else f"\\ followed by {nxt!r}"
            code, message, length, ch = "E107", f"invalid escape sequence {shown}", 2, ""
        else:
            code, message, length = "E108", f"character {ch!r} is not allowed in a string", 1
        span = SourceSpan(quote.file, quote.line, quote.column + 1 + m.start(), length)
        diags.append(Diagnostic(code, Severity.ERROR, message, location=span))
        return ch

    return re.sub(_STRING_PIECE, piece, text[start:end])


# A token is a plain tuple ``(kind, text, value, line, column, length)`` of
# strings and ints: one allocation, and one the cycle collector stops
# tracking at its first pass.  Kinds are word, keyword, string, the _PUNCT
# names and eof.  The parser builds a SourceSpan only for what it keeps.
_Token = tuple[str, str, str, int, int, int]


def _lex(text: str, file: str) -> tuple[list[_Token], list[Diagnostic]]:
    toks: list[_Token] = []
    append = toks.append
    diags: list[Diagnostic] = []
    line, line_start = 1, 0
    first = len(text) - len(text.lstrip(" \t\r"))  # matches start after blanks
    m = None
    for m in _TOKEN_RE.finditer(text, first):
        kind = m.lastgroup
        start = m.start()
        if kind == "word":
            word = m[kind]
            kw = "keyword" if word in KEYWORDS else "word"
            append((kw, word, word, line, start - line_start + 1, len(word)))
        elif kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "punct":
            ch = m[kind]
            append((_PUNCT[ch], ch, ch, line, start - line_start + 1, 1))
        elif kind == "string":
            value = m["body"]
            col, length = start - line_start + 1, m.end(kind) - start
            if "\\" in value or not value.isprintable():  # no forbidden character is printable
                span = SourceSpan(file, line, col, length)
                value = _string_value(text, start + 1, m.end("body"), span, diags)
            if not m["close"]:
                span = SourceSpan(file, line, col, length)
                diags.append(
                    Diagnostic("E102", Severity.ERROR, "unterminated string", location=span)
                )
            append(("string", f'"{value}"', value, line, col, length))
        elif kind == "bad":
            message = f"invalid character {m[kind]!r}"
            span = SourceSpan(file, line, start - line_start + 1, 1)
            diags.append(Diagnostic("E103", Severity.ERROR, message, location=span))
    # Comments do not advance the column, so a trailing one leaves EOF at its '#'.
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    append(("eof", "", "", line, end - line_start + 1, 0))
    return toks, diags


# ---------------------------------------------------------------------------
# Taxonomy-leaf suggestions (plain Levenshtein over the 19 leaves)


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def suggest_leaf(word: str, max_distance: int = 2) -> str | None:
    """Closest taxonomy leaf within ``max_distance`` edits, ties by tree order."""
    best: str | None = None
    best_d = max_distance + 1
    for leaf in ALL_LEAVES:
        d = _edit_distance(word, leaf)
        if d < best_d:
            best, best_d = leaf, d
    return best


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, toks: list[_Token], diags: list[Diagnostic], file: str):
        self.toks = toks
        self.i = 0
        self.diags = diags
        self.file = file
        self.model: AlignmentModel | None = None
        # (kind, source, target, token of the reference), in source order.
        self.rel_specs: list[tuple[RelationKind, str, str, _Token]] = []
        self.spans: dict[str, SourceSpan] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        tok = self.toks[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.toks[self.i]
        return tok[0] == kind and (text is None or tok[1] == text)

    def span(self, tok: _Token) -> SourceSpan:
        return SourceSpan(self.file, tok[3], tok[4], tok[5])

    def error(self, code: str, message: str, tok: _Token | None = None) -> None:
        location = self.span(tok or self.peek())
        self.diags.append(Diagnostic(code, Severity.ERROR, message, location=location))

    def expect(self, kind: str, what: str) -> _Token | None:
        if self.at(kind):
            return self.next()
        shown = self.peek()[1] or "end of file"
        self.error("E101", f"expected {what}, found {shown!r}")
        return None

    def sync_entry(self) -> None:
        """Skip to the end of the current entry (past ';', before '}')."""
        while not self.at("eof"):
            if self.at("semi"):
                self.next()
                return
            if self.at("rbrace") or self.peek()[1] in STATEMENT_KEYWORDS:
                return
            self.next()

    def sync_statement(self) -> None:
        depth = 0
        while not self.at("eof"):
            kind, text = self.peek()[:2]
            if depth == 0 and (text in STATEMENT_KEYWORDS or kind == "rbrace"):
                return
            if kind == "lbrace":
                depth += 1
            elif kind == "rbrace":
                depth -= 1
            self.next()

    # -- grammar -----------------------------------------------------------

    def parse_file(self) -> None:
        if self.at("eof"):
            self.error("E100", "expected system block")
            return
        if not self.at("keyword", "system"):
            self.error("E100", f"expected system block, found {self.peek()[1]!r}")
            # Look for a system block further in; everything before is noise.
            while not self.at("eof") and not self.at("keyword", "system"):
                self.next()
            if self.at("eof"):
                return
        self.next()  # 'system'
        name_tok = self.expect("string", "system name string")
        name = name_tok[2] if name_tok else ""
        if name_tok is not None and not name:
            self.error("E000", "system name must not be empty", name_tok)
        # "?" keeps parsing alive on a missing name; finish() drops the model.
        self.model = AlignmentModel(name or "?")
        self.expect("lbrace", "'{'")
        while not self.at("eof") and not self.at("rbrace"):
            before = self.i
            self.parse_statement()
            if self.i == before:
                # Defensive: never loop without progress.
                self.next()
        self.expect("rbrace", "'}'")
        if not self.at("eof"):
            if self.at("keyword", "system"):
                self.error("E101", "only one system block is allowed per file")
            else:
                self.error("E101", f"expected end of file, found {self.peek()[1]!r}")

    def parse_statement(self) -> None:
        keyword = self.peek()[1]
        if keyword not in _STATEMENT_KINDS:
            shown = keyword or "end of file"
            self.error("E101", f"expected a statement, found {shown!r}")
            self.next()
            self.sync_statement()
            return
        self.next()
        kind = _STATEMENT_KINDS[keyword]
        if kind is None:
            role = self.peek()[1]
            kind = _ROLE_KINDS.get(role)
            if kind is None:
                roles = " or ".join(map(repr, _ROLE_KINDS))
                self.error("E101", f"expected {roles}, found {role!r}")
                self.sync_statement()
                return
            self.next()
        self.parse_element(kind, keyword)

    def parse_id(self) -> _Token | None:
        """The token of a valid identifier; its text is the id."""
        tok = self.peek()
        kind, text = tok[:2]
        if kind == "keyword":
            self.error("E104", f"reserved word {text!r} used as identifier", tok)
            self.next()
            return None
        if kind != "word":
            shown = text or "end of file"
            self.error("E101", f"expected identifier, found {shown!r}")
            return None
        self.next()
        if not is_valid_id(text):
            self.error("E005", f"invalid identifier {text!r}", tok)
            return None
        return tok

    def parse_id_list(self) -> list[_Token]:
        ids: list[_Token] = []
        first = self.parse_id()
        if first:
            ids.append(first)
        while self.at("comma"):
            self.next()
            nxt = self.parse_id()
            if nxt:
                ids.append(nxt)
        return ids

    def add_element(
        self, kind: ElementKind, ident: _Token | None, name: str, attrs: dict
    ) -> str | None:
        if ident is None or self.model is None:
            return None
        id = ident[1]
        try:
            self.model.add_element(kind, id, name, attrs=attrs)
        except ModelError as err:
            self.error(err.code, err.message, ident)
            return None
        self.spans[id] = self.span(ident)
        return id

    def parse_element(self, kind: ElementKind, keyword: str) -> None:
        entries = STATEMENTS[kind].entries
        ident = self.parse_id()
        name_tok = self.expect("string", f"{keyword} name string")
        name = name_tok[2] if name_tok else ""
        attrs: dict[str, object] = {}
        # Entry key -> (id token, name) per reference; only a nested
        # declaration has a name.
        refs: dict[str, list[tuple[_Token, str]]] = {}
        seen_single: set[str] = set()
        if entries and self.at("lbrace"):
            self.next()
            while not self.at("eof") and not self.at("rbrace"):
                if self.peek()[1] in STATEMENT_KEYWORDS:
                    self.error("E101", "expected an entry or '}'")
                    break
                before = self.i
                self.parse_entry(kind, attrs, refs, seen_single)
                if self.i == before:
                    self.next()
            if self.at("rbrace"):
                self.next()
        self.add_element(kind, ident, name, attrs)
        if ident is None:
            return
        element_id = ident[1]
        # Relations are queued in entry order; nested elements follow their owner.
        for key, entry in entries.items():
            for ref_tok, ref_name in refs.get(key, ()):
                if entry.nested and not self.add_element(entry.nested, ref_tok, ref_name, {}):
                    continue
                ref = ref_tok[1]
                source, target = (element_id, ref) if entry.owner_is_source else (ref, element_id)
                self.rel_specs.append((entry.relation, source, target, ref_tok))

    def parse_entry(
        self,
        kind: ElementKind,
        attrs: dict[str, object],
        refs: dict[str, list[tuple[_Token, str]]],
        seen_single: set[str],
    ) -> None:
        entries = STATEMENTS[kind].entries
        tok = self.peek()
        key = tok[1]
        if key in _NESTED_OWNER:
            if key not in entries:
                owner = _NESTED_OWNER[key]
                self.error("E101", f"{key} declarations are only allowed inside {owner} blocks")
                self.next()
                self.sync_entry()
                return
            self.next()
            ident = self.parse_id()
            name_tok = self.expect("string", f"{key} name string")
            if ident:
                refs.setdefault(key, []).append((ident, name_tok[2] if name_tok else ""))
            self.expect("semi", "';'")
            return
        if tok[0] not in ("keyword", "word"):
            shown = key or "end of file"
            self.error("E101", f"expected an entry or '}}', found {shown!r}")
            self.sync_entry()
            return
        self.next()
        self.expect("colon", "':'")
        entry = entries.get(key)
        if entry is None:
            self.error("E002", f"attr {key!r} is not allowed on {kind.value}", tok)
            self.sync_entry()
            return
        if entry.single:
            if key in seen_single:
                self.error("E130", f"repeated entry {key!r}", tok)
            seen_single.add(key)
        self.parse_entry_value(key, entry, attrs, refs)

    def parse_entry_value(
        self,
        key: str,
        entry: Entry,
        attrs: dict[str, object],
        refs: dict[str, list[tuple[_Token, str]]],
    ) -> None:
        if entry.relation is not None:
            ids = [self.parse_id()] if entry.single else self.parse_id_list()
            refs.setdefault(key, []).extend((i, "") for i in ids if i)
        elif entry.form == "word":
            word = self.next()
            if word[1] in entry.leaves:
                attrs[key] = word[1]
            else:
                self.error(
                    "E123",
                    f"unknown runtime target {word[1]!r} "
                    f"(expected one of: {', '.join(entry.leaves)})",
                    word,
                )
        else:
            if entry.form == "cost":
                word = self.next()
                leaf = COST_WORDS.get(word[1])
                if leaf is None:
                    self.error(
                        "E124",
                        f"unknown cost kind {word[1]!r} "
                        f"(expected one of: {', '.join(COST_WORDS)})",
                        word,
                    )
            else:
                leaf = self.parse_leaf(entry.leaves, key)
            severity: tuple[str, ...] = ()
            if entry.form == "hinders":
                severity = (DEFAULT_RISK_SEVERITY,)
                if self.at("keyword", "severity"):
                    self.next()
                    self.expect("colon", "':'")
                    word = self.next()
                    if word[1] in SEVERITY_LEVELS:
                        severity = (word[1],)
                    else:
                        self.error(
                            "E122",
                            f"unknown severity level {word[1]!r} "
                            f"(expected one of: {', '.join(SEVERITY_LEVELS)})",
                            word,
                        )
            desc = self.expect("string", "description string")
            if leaf:
                attrs.setdefault(key, []).append((leaf, *severity, desc[2] if desc else ""))
        self.expect("semi", "';'")

    def parse_leaf(self, expected: tuple[str, ...], what: str) -> str | None:
        tok = self.peek()
        kind, word = tok[:2]
        if kind not in ("word", "keyword"):
            shown = word or "end of file"
            self.error("E101", f"expected a taxonomy leaf, found {shown!r}")
            return None
        self.next()
        if word in expected:
            return word
        if is_leaf(word):
            self.error(
                "E125",
                f"leaf {word!r} is from the wrong branch for {what} "
                f"(expected one of: {', '.join(expected)})",
                tok,
            )
            return None
        suggestion = suggest_leaf(word)
        hint = f" (did you mean {suggestion!r}?)" if suggestion else ""
        self.error("E120", f"unknown taxonomy leaf {word!r}{hint}", tok)
        return None

    # -- phase 2 -------------------------------------------------------------

    def finish(self) -> AlignmentModel | None:
        if self.model is not None:
            for kind, source, target, tok in self.rel_specs:
                try:
                    self.model.add_relation(kind, source, target)
                except ModelError as err:
                    self.error(err.code, err.message, tok)
        if any(d.severity is Severity.ERROR for d in self.diags):
            return None
        return self.model


def parse(text: str, file: str = "<input>") -> ParseResult:
    """Parse ``.dsa`` source text into an :class:`AlignmentModel`."""
    toks, diags = _lex(text, file)
    parser = _Parser(toks, diags, file)
    parser.parse_file()
    model = parser.finish()
    return ParseResult(model=model, diagnostics=parser.diags, spans=parser.spans)


def load_file(path) -> ParseResult:
    """Parse a ``.dsa`` file. I/O failures become E190/E191 diagnostics."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        return ParseResult(
            model=None,
            diagnostics=[
                Diagnostic("E190", Severity.ERROR, f"cannot read {path}: {err.strerror}")
            ],
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        return ParseResult(
            model=None,
            diagnostics=[
                Diagnostic("E191", Severity.ERROR, f"{path} is not valid UTF-8: {err.reason}")
            ],
        )
    return parse(text.replace("\r\n", "\n"), file=str(path))


# ---------------------------------------------------------------------------
# Canonical printer


def _quote(value: str) -> str:
    if "\n" in value:  # a string ends at the end of its line
        raise ModelError("E140", f"line feed in {value!r} is not expressible in the DSL")
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_model(model: AlignmentModel) -> str:
    """Render a model in canonical ``.dsa`` form.

    Only pre-derivation models are expressible.  Models with validation
    errors raise E141.  Content the language cannot carry raises E140:
    motivation-layer elements, relations without a surface entry, a second
    value for a single-valued entry, a nested element with no owner or with
    two, a reserved word as an id, a line feed in a string, and element
    descriptions.
    """
    if any(d.severity is Severity.ERROR for d in model.validate()):
        raise ModelError("E141", "cannot format a model with validation errors")

    refs: dict[tuple[str, str], list[str]] = {}  # (owner id, entry key) -> other ends
    nested: set[str] = set()  # ids declared inside their owner's statement
    for rel in model.relations:
        owner, other = rel.source, rel.target
        found = _ENTRY_OF_RELATION.get((rel.kind, model.element(owner).kind, True))
        if found is None:
            owner, other = other, owner
            found = _ENTRY_OF_RELATION.get((rel.kind, model.element(owner).kind, False))
        if found is None:
            raise ModelError(
                "E140",
                f"{rel.kind.value} from {rel.source!r} to {rel.target!r} "
                "is not expressible in the DSL",
            )
        key, entry = found
        others = refs.setdefault((owner, key), [])
        if entry.single and others:
            raise ModelError("E140", f"a second {key!r} entry on {owner!r} is not expressible")
        if entry.nested:
            if other in nested:
                raise ModelError("E140", f"{key} {other!r} is declared by more than one owner")
            nested.add(other)
        others.append(other)

    statements: list[tuple[str, list[str]]] = []  # (leading keyword, lines)
    for e in model.elements:
        if e.id in KEYWORDS:
            raise ModelError("E140", f"reserved word {e.id!r} is not expressible as an id")
        if e.description is not None:
            raise ModelError("E140", f"the description of {e.id!r} is not expressible")
        if e.kind in _NESTED:
            if e.id not in nested:
                key, owner = _NESTED[e.kind]
                raise ModelError("E140", f"{key} {e.id!r} has no owning {owner}")
            continue
        statement = STATEMENTS.get(e.kind)
        if statement is None:
            raise ModelError(
                "E140", f"{e.kind.value} elements are not expressible in the DSL"
            )
        words = (statement.keyword, statement.role, e.id, _quote(e.name))
        header = " ".join(word for word in words if word)
        body: list[str] = []
        for key, entry in statement.entries.items():
            if entry.nested:
                for ref in refs.get((e.id, key), ()):
                    body.append(f"{key} {ref} {_quote(model.element(ref).name)};")
            elif entry.relation is not None:
                if (e.id, key) in refs:
                    body.append(f"{key}: {', '.join(refs[e.id, key])};")
            elif entry.form == "word":
                if key in e.attrs:
                    body.append(f"{key}: {e.attrs[key]};")
            else:
                for leaf, *rest in e.attrs.get(key, ()):
                    word = _COST_LEAF_TO_WORD[leaf] if entry.form == "cost" else leaf
                    severity = f" severity: {rest[0]}" if entry.form == "hinders" else ""
                    body.append(f"{key}: {word}{severity} {_quote(rest[-1])};")
        if body:
            lines = [header + " {"] + ["  " + line for line in body] + ["}"]
        else:
            lines = [header]
        statements.append((statement.keyword, lines))

    out: list[str] = [f"system {_quote(model.system_name)} {{"]
    prev_keyword: str | None = None
    prev_single = False
    for keyword, lines in statements:
        single = len(lines) == 1
        if prev_keyword is not None and not (single and prev_single and keyword == prev_keyword):
            out.append("")
        out.extend("  " + line if line else "" for line in lines)
        prev_keyword, prev_single = keyword, single
    out.append("}")
    return "\n".join(out) + "\n"
