"""Parser and canonical printer for the ``.dsa`` model language.

A ``.dsa`` file holds exactly one ``system "<name>" { ... }`` block.  Each
statement inside the block declares one element; keyed entries inside a
statement either set attrs (``yields_user_value:``, ``runs_on:``, ...) or
declare relations (``by:``, ``serves:``, ``realized_by:``, ``uses:``,
``about:``, ``influences:``).  ``function`` entries nest a component function
and create its realization edge.

Parsing is total: arbitrary input yields diagnostics, never an exception.
``format_model`` prints the canonical form: two-space indents, elements in
insertion order, entries in allowlist order, LF line endings, and a trailing
newline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .model import (
    ALL_LEAVES,
    AlignmentModel,
    Diagnostic,
    Element,
    ElementKind,
    ModelError,
    RelationKind,
    RISK_LEAVES,
    RUNTIME_TARGETS,
    SEVERITY_LEVELS,
    DEFAULT_RISK_SEVERITY,
    Severity,
    SourceSpan,
    XML_FORBIDDEN,
    YIELDS_LEAVES,
    is_leaf,
    is_valid_id,
)

KEYWORDS = frozenset(
    {
        "system",
        "actor",
        "user",
        "operator",
        "user_activity",
        "operator_activity",
        "service",
        "component",
        "data",
        "event",
        "function",
        "by",
        "serves",
        "realized_by",
        "uses",
        "runs_on",
        "about",
        "influences",
        "implies_cost",
        "hinders",
        "severity",
        "yields_user_value",
        "yields_quality_value",
        "yields_business_value",
    }
)

STATEMENT_KEYWORDS = frozenset(
    {"actor", "user_activity", "operator_activity", "service", "component", "data", "event"}
)

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


@dataclass
class _Token:
    kind: str  # word | keyword | string | punctuation kinds | eof
    text: str
    value: str
    span: SourceSpan


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

_STRING_PIECE = re.compile(f'\\\\(["\\\\])?|[{XML_FORBIDDEN}]')


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

    return _STRING_PIECE.sub(piece, text[start:end])


def _lex(text: str, file: str) -> tuple[list[_Token], list[Diagnostic]]:
    toks: list[_Token] = []
    diags: list[Diagnostic] = []
    line, line_start = 1, 0
    first = len(text) - len(text.lstrip(" \t\r"))  # matches start after blanks
    m = None
    for m in _TOKEN_RE.finditer(text, first):
        kind = m.lastgroup
        start = m.start()
        col = start - line_start + 1
        if kind == "word":
            word = m.group(kind)
            kw = "keyword" if word in KEYWORDS else "word"
            toks.append(_Token(kw, word, word, SourceSpan(file, line, col, len(word))))
        elif kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "punct":
            ch = m.group(kind)
            toks.append(_Token(_PUNCT[ch], ch, ch, SourceSpan(file, line, col, 1)))
        elif kind == "string":
            value = m.group("body")
            span = SourceSpan(file, line, col, m.end(kind) - start)
            if "\\" in value or not value.isprintable():  # no forbidden character is printable
                value = _string_value(text, start + 1, m.end("body"), span, diags)
            if not m.group("close"):
                diags.append(
                    Diagnostic("E102", Severity.ERROR, "unterminated string", location=span)
                )
            toks.append(_Token("string", f'"{value}"', value, span))
        elif kind == "bad":
            message = f"invalid character {m.group(kind)!r}"
            span = SourceSpan(file, line, col, 1)
            diags.append(Diagnostic("E103", Severity.ERROR, message, location=span))
    # Comments do not advance the column, so a trailing one leaves EOF at its '#'.
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    toks.append(_Token("eof", "", "", SourceSpan(file, line, end - line_start + 1, 0)))
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


@dataclass
class _RelSpec:
    kind: RelationKind
    source: str
    target: str
    span: SourceSpan


_BLOCK_KINDS = {
    "user_activity": ElementKind.USER_ACTIVITY,
    "operator_activity": ElementKind.OPERATOR_ACTIVITY,
    "service": ElementKind.DIALOGUE_SERVICE,
    "component": ElementKind.SYSTEM_COMPONENT,
    "event": ElementKind.OBSERVED_EVENT,
}

# Relation-bearing entry keys in canonical materialization order per statement.
_REL_KEY_ORDER = {
    ElementKind.USER_ACTIVITY: ("by", "influences"),
    ElementKind.OPERATOR_ACTIVITY: ("by",),
    ElementKind.DIALOGUE_SERVICE: ("serves", "realized_by"),
    ElementKind.SYSTEM_COMPONENT: ("function", "uses"),
    ElementKind.OBSERVED_EVENT: ("about",),
}

_ENTRY_KEYS = {
    ElementKind.USER_ACTIVITY: (
        "by",
        "yields_user_value",
        "yields_quality_value",
        "influences",
    ),
    ElementKind.OPERATOR_ACTIVITY: ("by", "yields_business_value"),
    ElementKind.DIALOGUE_SERVICE: ("serves", "realized_by"),
    ElementKind.SYSTEM_COMPONENT: ("function", "uses", "runs_on"),
    ElementKind.OBSERVED_EVENT: ("about", "implies_cost", "hinders"),
}

_SCALAR_KEYS = frozenset({"by", "runs_on"})


class _Parser:
    def __init__(self, toks: list[_Token], diags: list[Diagnostic], file: str):
        self.toks = toks
        self.i = 0
        self.diags = diags
        self.file = file
        self.model: AlignmentModel | None = None
        self.rel_specs: list[_RelSpec] = []
        self.spans: dict[str, SourceSpan] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def error(self, code: str, message: str, span: SourceSpan | None = None) -> None:
        self.diags.append(
            Diagnostic(code, Severity.ERROR, message, location=span or self.peek().span)
        )

    def expect(self, kind: str, what: str) -> _Token | None:
        if self.at(kind):
            return self.next()
        tok = self.peek()
        shown = tok.text or "end of file"
        self.error("E101", f"expected {what}, found {shown!r}")
        return None

    def sync_entry(self) -> None:
        """Skip to the end of the current entry (past ';', before '}')."""
        while not self.at("eof"):
            if self.at("semi"):
                self.next()
                return
            if self.at("rbrace") or self.peek().text in STATEMENT_KEYWORDS:
                return
            self.next()

    def sync_statement(self) -> None:
        depth = 0
        while not self.at("eof"):
            tok = self.peek()
            if depth == 0 and (tok.text in STATEMENT_KEYWORDS or tok.kind == "rbrace"):
                return
            if tok.kind == "lbrace":
                depth += 1
            elif tok.kind == "rbrace":
                depth -= 1
            self.next()

    # -- grammar -----------------------------------------------------------

    def parse_file(self) -> None:
        if self.at("eof"):
            self.error("E100", "expected system block")
            return
        if not self.at("keyword", "system"):
            self.error("E100", f"expected system block, found {self.peek().text!r}")
            # Look for a system block further in; everything before is noise.
            while not self.at("eof") and not self.at("keyword", "system"):
                self.next()
            if self.at("eof"):
                return
        self.next()  # 'system'
        name_tok = self.expect("string", "system name string")
        name = name_tok.value if name_tok else ""
        if name_tok is not None and not name:
            self.error("E000", "system name must not be empty", name_tok.span)
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
                self.error("E101", f"expected end of file, found {self.peek().text!r}")

    def parse_statement(self) -> None:
        tok = self.peek()
        if tok.text == "actor":
            self.next()
            self.parse_actor()
        elif tok.text == "data":
            self.next()
            self.parse_data()
        elif tok.text in _BLOCK_KINDS:
            self.next()
            self.parse_block_statement(tok.text)
        else:
            shown = tok.text or "end of file"
            self.error("E101", f"expected a statement, found {shown!r}")
            self.next()
            self.sync_statement()

    def parse_id(self) -> tuple[str, SourceSpan] | None:
        tok = self.peek()
        if tok.kind == "keyword":
            self.error("E104", f"reserved word {tok.text!r} used as identifier", tok.span)
            self.next()
            return None
        if tok.kind != "word":
            shown = tok.text or "end of file"
            self.error("E101", f"expected identifier, found {shown!r}")
            return None
        self.next()
        if not is_valid_id(tok.text):
            self.error("E005", f"invalid identifier {tok.text!r}", tok.span)
            return None
        return tok.text, tok.span

    def parse_id_list(self) -> list[tuple[str, SourceSpan]]:
        ids: list[tuple[str, SourceSpan]] = []
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
        self,
        kind: ElementKind,
        ident: tuple[str, SourceSpan] | None,
        name: str,
        attrs: dict,
    ) -> str | None:
        if ident is None or self.model is None:
            return None
        id, span = ident
        try:
            self.model.add_element(kind, id, name, attrs=attrs)
        except ModelError as err:
            self.error(err.code, err.message, span)
            return None
        self.spans[id] = span
        return id

    def parse_actor(self) -> None:
        role = self.peek()
        if role.text not in ("user", "operator"):
            self.error("E101", f"expected 'user' or 'operator', found {role.text!r}")
            self.sync_statement()
            return
        self.next()
        ident = self.parse_id()
        name_tok = self.expect("string", "actor name string")
        kind = ElementKind.USER if role.text == "user" else ElementKind.OPERATOR
        self.add_element(kind, ident, name_tok.value if name_tok else "", {})

    def parse_data(self) -> None:
        ident = self.parse_id()
        name_tok = self.expect("string", "data name string")
        self.add_element(
            ElementKind.DATA_MODEL, ident, name_tok.value if name_tok else "", {}
        )

    def parse_block_statement(self, keyword: str) -> None:
        kind = _BLOCK_KINDS[keyword]
        ident = self.parse_id()
        name_tok = self.expect("string", f"{keyword} name string")
        name = name_tok.value if name_tok else ""
        attrs: dict[str, list] = {}
        rel_targets: dict[str, list[tuple[str, SourceSpan]]] = {}
        functions: list[tuple[tuple[str, SourceSpan], str]] = []
        seen_scalar: set[str] = set()
        if self.at("lbrace"):
            self.next()
            while not self.at("eof") and not self.at("rbrace"):
                if self.peek().text in STATEMENT_KEYWORDS:
                    self.error("E101", "expected an entry or '}'")
                    break
                before = self.i
                self.parse_entry(kind, attrs, rel_targets, functions, seen_scalar)
                if self.i == before:
                    self.next()
            if self.at("rbrace"):
                self.next()
        element_id = self.add_element(kind, ident, name, {k: v for k, v in attrs.items()})
        if element_id is None:
            element_id = ident[0] if ident else None
        self.queue_relations(kind, element_id, rel_targets, functions)

    def queue_relations(
        self,
        kind: ElementKind,
        element_id: str | None,
        rel_targets: dict[str, list[tuple[str, SourceSpan]]],
        functions: list[tuple[tuple[str, SourceSpan], str]],
    ) -> None:
        if element_id is None:
            return
        for key in _REL_KEY_ORDER.get(kind, ()):
            if key == "function":
                for (fn_id, fn_span), fn_name in functions:
                    if self.model is not None:
                        try:
                            self.model.add_element(
                                ElementKind.COMPONENT_FUNCTION, fn_id, fn_name
                            )
                        except ModelError as err:
                            self.error(err.code, err.message, fn_span)
                            continue
                        self.spans[fn_id] = fn_span
                    self.rel_specs.append(
                        _RelSpec(RelationKind.REALIZATION, element_id, fn_id, fn_span)
                    )
                continue
            for ref, span in rel_targets.get(key, []):
                if key == "by":
                    spec = _RelSpec(RelationKind.ASSIGNMENT, ref, element_id, span)
                elif key == "serves":
                    spec = _RelSpec(RelationKind.SERVING, element_id, ref, span)
                elif key == "realized_by":
                    spec = _RelSpec(RelationKind.REALIZATION, ref, element_id, span)
                elif key == "uses":
                    spec = _RelSpec(RelationKind.ACCESS, element_id, ref, span)
                elif key == "about":
                    spec = _RelSpec(RelationKind.ASSOCIATION, element_id, ref, span)
                else:  # influences
                    spec = _RelSpec(RelationKind.INFLUENCE, element_id, ref, span)
                self.rel_specs.append(spec)

    def parse_entry(
        self,
        kind: ElementKind,
        attrs: dict[str, list],
        rel_targets: dict[str, list[tuple[str, SourceSpan]]],
        functions: list[tuple[tuple[str, SourceSpan], str]],
        seen_scalar: set[str],
    ) -> None:
        tok = self.peek()
        if tok.text == "function":
            if kind is not ElementKind.SYSTEM_COMPONENT:
                self.error(
                    "E101", "function declarations are only allowed inside component blocks"
                )
                self.next()
                self.sync_entry()
                return
            self.next()
            ident = self.parse_id()
            name_tok = self.expect("string", "function name string")
            if ident:
                functions.append((ident, name_tok.value if name_tok else ""))
            self.expect("semi", "';'")
            return
        if tok.kind not in ("keyword", "word"):
            shown = tok.text or "end of file"
            self.error("E101", f"expected an entry or '}}', found {shown!r}")
            self.sync_entry()
            return
        key = tok.text
        self.next()
        self.expect("colon", "':'")
        if key not in _ENTRY_KEYS.get(kind, ()):
            self.error("E002", f"attr {key!r} is not allowed on {kind.value}", tok.span)
            self.sync_entry()
            return
        if key in _SCALAR_KEYS:
            if key in seen_scalar:
                self.error("E130", f"repeated entry {key!r}", tok.span)
            seen_scalar.add(key)
        self.parse_entry_value(key, attrs, rel_targets)

    def parse_entry_value(
        self,
        key: str,
        attrs: dict[str, list],
        rel_targets: dict[str, list[tuple[str, SourceSpan]]],
    ) -> None:
        if key in ("by", "serves", "realized_by", "uses", "about", "influences"):
            ids = [self.parse_id()] if key == "by" else self.parse_id_list()
            rel_targets.setdefault(key, []).extend(i for i in ids if i)
        elif key == "runs_on":
            word = self.next()
            if word.text in RUNTIME_TARGETS:
                attrs["runs_on"] = word.text
            else:
                self.error(
                    "E123",
                    f"unknown runtime target {word.text!r} "
                    f"(expected one of: {', '.join(RUNTIME_TARGETS)})",
                    word.span,
                )
        elif key in YIELDS_LEAVES:
            leaf = self.parse_leaf(YIELDS_LEAVES[key], key)
            desc = self.expect("string", "description string")
            if leaf:
                attrs.setdefault(key, []).append((leaf, desc.value if desc else ""))
        elif key == "implies_cost":
            word = self.next()
            leaf = COST_WORDS.get(word.text)
            if leaf is None:
                self.error(
                    "E124",
                    f"unknown cost kind {word.text!r} "
                    f"(expected one of: {', '.join(COST_WORDS)})",
                    word.span,
                )
            desc = self.expect("string", "description string")
            if leaf:
                attrs.setdefault("implies_cost", []).append(
                    (leaf, desc.value if desc else "")
                )
        elif key == "hinders":
            leaf = self.parse_leaf(RISK_LEAVES, "hinders")
            severity = DEFAULT_RISK_SEVERITY
            if self.at("keyword", "severity"):
                self.next()
                self.expect("colon", "':'")
                word = self.next()
                if word.text in SEVERITY_LEVELS:
                    severity = word.text
                else:
                    self.error(
                        "E122",
                        f"unknown severity level {word.text!r} "
                        f"(expected one of: {', '.join(SEVERITY_LEVELS)})",
                        word.span,
                    )
            desc = self.expect("string", "description string")
            if leaf:
                attrs.setdefault("hinders", []).append(
                    (leaf, severity, desc.value if desc else "")
                )
        self.expect("semi", "';'")

    def parse_leaf(self, expected: tuple[str, ...], what: str) -> str | None:
        tok = self.peek()
        if tok.kind not in ("word", "keyword"):
            shown = tok.text or "end of file"
            self.error("E101", f"expected a taxonomy leaf, found {shown!r}")
            return None
        self.next()
        word = tok.text
        if word in expected:
            return word
        if is_leaf(word):
            self.error(
                "E125",
                f"leaf {word!r} is from the wrong branch for {what} "
                f"(expected one of: {', '.join(expected)})",
                tok.span,
            )
            return None
        suggestion = suggest_leaf(word)
        hint = f" (did you mean {suggestion!r}?)" if suggestion else ""
        self.error("E120", f"unknown taxonomy leaf {word!r}{hint}", tok.span)
        return None

    # -- phase 2 -------------------------------------------------------------

    def finish(self) -> AlignmentModel | None:
        if self.model is not None:
            for spec in self.rel_specs:
                try:
                    self.model.add_relation(spec.kind, spec.source, spec.target)
                except ModelError as err:
                    self.error(err.code, err.message, spec.span)
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
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_model(model: AlignmentModel) -> str:
    """Render a model in canonical ``.dsa`` form.

    Only pre-derivation models are expressible: motivation-layer elements and
    relations without a surface statement raise E140, and models with
    validation errors raise E141.
    """
    if any(d.severity is Severity.ERROR for d in model.validate()):
        raise ModelError("E141", "cannot format a model with validation errors")

    owner_of: dict[str, str] = {}
    functions_of: dict[str, list[str]] = {}
    by_of: dict[str, list[str]] = {}
    serves_of: dict[str, list[str]] = {}
    realized_by_of: dict[str, list[str]] = {}
    uses_of: dict[str, list[str]] = {}
    about_of: dict[str, list[str]] = {}
    influences_of: dict[str, list[str]] = {}

    for rel in model.relations:
        skind = model.element(rel.source).kind
        tkind = model.element(rel.target).kind
        pair = (rel.kind, skind, tkind)
        if pair == (RelationKind.REALIZATION, ElementKind.SYSTEM_COMPONENT, ElementKind.COMPONENT_FUNCTION):
            functions_of.setdefault(rel.source, []).append(rel.target)
            owner_of[rel.target] = rel.source
        elif pair == (RelationKind.REALIZATION, ElementKind.COMPONENT_FUNCTION, ElementKind.DIALOGUE_SERVICE):
            realized_by_of.setdefault(rel.target, []).append(rel.source)
        elif rel.kind is RelationKind.ASSIGNMENT:
            by_of.setdefault(rel.target, []).append(rel.source)
        elif rel.kind is RelationKind.SERVING and skind is ElementKind.DIALOGUE_SERVICE:
            serves_of.setdefault(rel.source, []).append(rel.target)
        elif rel.kind is RelationKind.ACCESS and skind is ElementKind.SYSTEM_COMPONENT:
            uses_of.setdefault(rel.source, []).append(rel.target)
        elif rel.kind is RelationKind.ASSOCIATION and skind is ElementKind.OBSERVED_EVENT:
            about_of.setdefault(rel.source, []).append(rel.target)
        elif rel.kind is RelationKind.ASSOCIATION and tkind is ElementKind.OBSERVED_EVENT:
            about_of.setdefault(rel.target, []).append(rel.source)
        elif rel.kind is RelationKind.INFLUENCE and skind is ElementKind.USER_ACTIVITY:
            influences_of.setdefault(rel.source, []).append(rel.target)
        else:
            raise ModelError(
                "E140",
                f"{rel.kind.value} from {rel.source!r} to {rel.target!r} "
                "is not expressible in the DSL",
            )

    def entry_lines(e: Element) -> list[str]:
        lines: list[str] = []
        if e.kind is ElementKind.USER_ACTIVITY:
            for ref in by_of.get(e.id, []):
                lines.append(f"by: {ref};")
            for leaf, desc in e.attrs.get("yields_user_value", []):
                lines.append(f"yields_user_value: {leaf} {_quote(desc)};")
            for leaf, desc in e.attrs.get("yields_quality_value", []):
                lines.append(f"yields_quality_value: {leaf} {_quote(desc)};")
            if influences_of.get(e.id):
                lines.append(f"influences: {', '.join(influences_of[e.id])};")
        elif e.kind is ElementKind.OPERATOR_ACTIVITY:
            for ref in by_of.get(e.id, []):
                lines.append(f"by: {ref};")
            for leaf, desc in e.attrs.get("yields_business_value", []):
                lines.append(f"yields_business_value: {leaf} {_quote(desc)};")
        elif e.kind is ElementKind.DIALOGUE_SERVICE:
            if serves_of.get(e.id):
                lines.append(f"serves: {', '.join(serves_of[e.id])};")
            if realized_by_of.get(e.id):
                lines.append(f"realized_by: {', '.join(realized_by_of[e.id])};")
        elif e.kind is ElementKind.SYSTEM_COMPONENT:
            for fn_id in functions_of.get(e.id, []):
                fn = model.element(fn_id)
                lines.append(f"function {fn.id} {_quote(fn.name)};")
            if uses_of.get(e.id):
                lines.append(f"uses: {', '.join(uses_of[e.id])};")
            if "runs_on" in e.attrs:
                lines.append(f"runs_on: {e.attrs['runs_on']};")
        elif e.kind is ElementKind.OBSERVED_EVENT:
            if about_of.get(e.id):
                lines.append(f"about: {', '.join(about_of[e.id])};")
            for leaf, desc in e.attrs.get("implies_cost", []):
                lines.append(f"implies_cost: {_COST_LEAF_TO_WORD[leaf]} {_quote(desc)};")
            for leaf, severity, desc in e.attrs.get("hinders", []):
                lines.append(
                    f"hinders: {leaf} severity: {severity} {_quote(desc)};"
                )
        return lines

    statements: list[tuple[str, list[str]]] = []  # (leading keyword, lines)
    for e in model.elements:
        if e.kind is ElementKind.COMPONENT_FUNCTION:
            if e.id not in owner_of:
                raise ModelError(
                    "E140", f"function {e.id!r} has no owning component"
                )
            continue
        if e.kind is ElementKind.USER:
            statements.append(("actor", [f"actor user {e.id} {_quote(e.name)}"]))
            continue
        if e.kind is ElementKind.OPERATOR:
            statements.append(("actor", [f"actor operator {e.id} {_quote(e.name)}"]))
            continue
        if e.kind is ElementKind.DATA_MODEL:
            statements.append(("data", [f"data {e.id} {_quote(e.name)}"]))
            continue
        keyword = {
            ElementKind.USER_ACTIVITY: "user_activity",
            ElementKind.OPERATOR_ACTIVITY: "operator_activity",
            ElementKind.DIALOGUE_SERVICE: "service",
            ElementKind.SYSTEM_COMPONENT: "component",
            ElementKind.OBSERVED_EVENT: "event",
        }.get(e.kind)
        if keyword is None:
            raise ModelError(
                "E140", f"{e.kind.value} elements are not expressible in the DSL"
            )
        header = f"{keyword} {e.id} {_quote(e.name)}"
        body = entry_lines(e)
        if body:
            lines = [header + " {"] + ["  " + line for line in body] + ["}"]
        else:
            lines = [header]
        statements.append((keyword, lines))

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
