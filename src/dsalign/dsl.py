"""Parser and canonical printer for the ``.dsa`` model language.

A ``.dsa`` file holds exactly one ``system "<name>" { ... }`` block.  Each
statement inside the block declares one element; keyed entries inside a
statement either set attrs (``yields_user_value:``, ``runs_on:``, ...) or
declare relations (``by:``, ``serves:``, ``realized_by:``, ``uses:``,
``about:``, ``influences:``).  ``function`` entries nest a component function
and create its realization edge.  ``model.STATEMENTS`` lists every statement
and entry; the parser and the printer read it.

Parsing is total: arbitrary input yields diagnostics, never an exception.
``format_model`` prints the canonical form: two-space indents, elements in
insertion order, entries in table order, LF line endings, and a trailing
newline.
"""

from __future__ import annotations

from bisect import bisect_right
from codecs import BOM_UTF8
from collections.abc import Collection, Mapping
from itertools import accumulate, compress, count
from operator import add
import re

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
    _Record,
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


class ParseResult(_Record):
    """Outcome of a parse: the model is present iff there are no errors.

    ``spans`` maps element ids, in declaration order, to their declaration
    sites so callers can anchor model-level diagnostics back into the source
    file.  From ``parse`` it is a read-only mapping that builds each
    ``SourceSpan`` on lookup.
    """

    __slots__ = ("model", "diagnostics", "spans")

    def __init__(
        self, model: AlignmentModel | None, diagnostics: list[Diagnostic],
        spans: Mapping[str, SourceSpan] | None = None,
    ) -> None:
        self.model = model
        self.diagnostics = diagnostics
        self.spans = {} if spans is None else spans


class _Spans(Mapping):
    """Element id -> the ``SourceSpan`` of its id token, built on lookup from its offset."""

    __slots__ = ("text", "file", "starts", "lines")

    def __init__(self, text: str, file: str) -> None:
        self.text, self.file, self.starts, self.lines = text, file, {}, None

    def at(self, start: int, length: int) -> SourceSpan:
        if self.lines is None:
            # Line n + 1 starts after the first n lines and their n line feeds.
            lengths = map(len, self.text.split("\n"))
            self.lines = list(map(add, accumulate(lengths, initial=0), count()))
        line = bisect_right(self.lines, start)
        return SourceSpan(self.file, line, start - self.lines[line - 1] + 1, length)

    def __getitem__(self, id: str) -> SourceSpan:
        return self.at(self.starts[id], len(id))

    def __iter__(self):
        return iter(self.starts)

    def __len__(self) -> int:
        return len(self.starts)


# ---------------------------------------------------------------------------
# Lexer

# First characters of the tokens that are not words; "" is in it, as at EOF.
_NON_WORD = '{}:;,"'

# A string body runs to the closing quote or to the end of the line.  A
# backslash escapes only a quote or a backslash; a lone one is left for
# ``_string_value`` to report.
_STRING_BODY = r'[^"\\\n]*(?:\\["\\]?[^"\\\n]*)*'

# One match per token: a plain lexeme (group 1) or an odd one (group 2), then
# the blanks, line feeds and comments after it (group 3).  ``\w`` matches
# exactly the characters for which ``isalnum() or == "_"`` holds.  A plain
# string is closed and holds only tabs and printable ASCII other than a
# backslash.  Odd lexemes are every other string and single characters that
# start no token.
_TOKEN_RE = re.compile(
    r'(?:(\w+|[{}:;,]|"[\t !#-\[\]-~]*")|("' + _STRING_BODY + r'"?|.))'
    r"([ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*)"
)

# Compiled on first use and cached by ``re``, as only odd strings need them:
# compiling the forbidden class costs about 1 ms, which every CLI run would
# otherwise pay at import.
_STRING_PARTS = f'"({_STRING_BODY})("?)'
_STRING_PIECE = f'\\\\(["\\\\])?|[{XML_FORBIDDEN}]'

# A lexer finding: (start offset, length, code, message).
_Finding = tuple[int, int, str, str]


def _string_value(text: str, start: int, end: int, found: list[_Finding]) -> str:
    """Unescape the string body ``text[start:end]``, reporting E107 and E108.

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
        found.append((start + m.start(), length, code, message))
        return ch

    return re.sub(_STRING_PIECE, piece, text[start:end])


def _lex(text: str) -> tuple[list[str], list[int], list[_Finding]]:
    """Tokens, their start offsets, and the lexer's findings in source order.

    A token is its source text, except that a string token is its value in
    quotes.  The last token is "" at the end of the file or, when the file
    ends in a comment, at that comment's '#'.
    """
    # The leading ';' is a token whose trail takes the text's leading blanks.
    parts = _TOKEN_RE.split(";" + text)  # "", plain, odd, trail per token, then ""
    toks, odd, trails = parts[1::4], parts[2::4], parts[3::4]
    if any(odd):
        toks = [o or p for p, o in zip(toks, odd)]
    starts = list(accumulate(map(add, map(len, toks), map(len, trails)), initial=-1))
    del toks[0], starts[0], odd[0]
    toks.append("")
    tail = trails[-1]
    comment = tail.find("#", tail.rfind("\n") + 1)
    if comment >= 0:
        starts[-1] -= len(tail) - comment
    found: list[_Finding] = []
    dropped = False
    for k in compress(range(len(toks)), odd):
        lexeme, start = toks[k], starts[k]
        if lexeme[0] != '"':
            found.append((start, 1, "E103", f"invalid character {lexeme!r}"))
            toks[k] = None
            dropped = True
            continue
        body, close = re.match(_STRING_PARTS, lexeme).groups()
        if "\\" in body or not body.isprintable():  # no forbidden character is printable
            body = _string_value(text, start + 1, start + 1 + len(body), found)
        if not close:
            found.append((start, len(lexeme), "E102", "unterminated string"))
        toks[k] = f'"{body}"'
    if dropped:
        starts = [start for start, tok in zip(starts, toks) if tok is not None]
        toks = [tok for tok in toks if tok is not None]
    return toks, starts, found


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


def suggest_leaf(word: str) -> str | None:
    """Closest taxonomy leaf within two edits, ties by tree order."""
    best: str | None = None
    best_d = 3  # one more than the farthest suggestion
    for leaf in ALL_LEAVES:
        d = _edit_distance(word, leaf)
        if d < best_d:
            best, best_d = leaf, d
    return best


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent over ``_lex``'s tokens; ``i`` is the current token.

    ``i`` never moves past the EOF token.  Tokens are strings, so each kind
    test reads the token's text: "" is EOF, a string starts with a quote,
    and a word starts with none of ``_NON_WORD``.
    """

    def __init__(self, text: str, file: str):
        self.toks, self.starts, found = _lex(text)
        self.i = 0
        self.spans = _Spans(text, file)
        self.diags = [
            Diagnostic(code, Severity.ERROR, message, location=self.spans.at(start, length))
            for start, length, code, message in found
        ]
        self.model: AlignmentModel | None = None
        # Per relation, in source order: kind, source, target and the index of
        # the reference token.  A flat list holds no tuple for the cycle
        # collector to track.
        self.rel_specs: list[RelationKind | str | int] = []

    # -- locations and errors ----------------------------------------------

    def span(self, i: int) -> SourceSpan:
        tok, start = self.toks[i], self.starts[i]
        length = len(tok)
        if tok[:1] == '"':  # an escaped or unterminated string is longer in the source
            m = _TOKEN_RE.match(self.spans.text, start)
            length = len(m[1] or m[2])
        return self.spans.at(start, length)

    def error(self, code: str, message: str, i: int) -> None:
        self.diags.append(Diagnostic(code, Severity.ERROR, message, location=self.span(i)))

    def expected(self, what: str, i: int) -> None:
        """Report E101: token ``i`` is not ``what``."""
        shown = self.toks[i] or "end of file"
        self.error("E101", f"expected {what}, found {shown!r}", i)

    def expect(self, punct: str) -> bool:
        i = self.i
        tok = self.toks[i]
        if tok == punct:
            self.i = i + 1
            return True
        self.expected(repr(punct), i)
        return False

    def expect_string(self, what: str) -> str | None:
        """The value of the current token if it is a string, else report E101."""
        i = self.i
        tok = self.toks[i]
        if tok[:1] == '"':
            self.i = i + 1
            return tok[1:-1]
        self.expected(what, i)
        return None

    def sync_entry(self) -> None:
        """Skip to the end of the current entry (past ';', before '}')."""
        toks = self.toks
        i = self.i
        while (tok := toks[i]) and tok != "}" and tok not in STATEMENT_KEYWORDS:
            i += 1
            if tok == ";":
                break
        self.i = i

    def sync_statement(self) -> None:
        toks = self.toks
        i = self.i
        depth = 0
        while tok := toks[i]:
            if depth == 0 and (tok in STATEMENT_KEYWORDS or tok == "}"):
                break
            if tok == "{":
                depth += 1
            elif tok == "}":
                depth -= 1
            i += 1
        self.i = i

    # -- grammar -----------------------------------------------------------

    def parse_file(self) -> None:
        toks = self.toks
        if not toks[0]:
            self.error("E100", "expected system block", 0)
            return
        if toks[0] != "system":
            self.error("E100", f"expected system block, found {toks[0]!r}", 0)
            # Look for a system block further in; everything before is noise.
            if "system" not in toks:
                return
        self.i = toks.index("system") + 1
        name = self.expect_string("system name string")
        if name == "":
            self.error("E000", "system name must not be empty", self.i - 1)
        # "?" keeps parsing alive on a missing name; finish() drops the model.
        self.model = AlignmentModel(name or "?")
        self.expect("{")
        while (tok := toks[self.i]) and tok != "}":
            before = self.i
            self.parse_statement()
            if self.i == before:
                # Defensive: never loop without progress.
                self.i += 1
        self.expect("}")
        if tok := toks[self.i]:
            if tok == "system":
                self.error("E101", "only one system block is allowed per file", self.i)
            else:
                self.expected("end of file", self.i)

    def parse_statement(self) -> None:
        toks = self.toks
        i = self.i
        keyword = toks[i]
        if keyword not in _STATEMENT_KINDS:
            self.expected("a statement", i)
            self.i = i + 1 if keyword else i
            self.sync_statement()
            return
        i += 1
        kind = _STATEMENT_KINDS[keyword]
        if kind is None:
            role = toks[i]
            kind = _ROLE_KINDS.get(role)
            if kind is None:
                roles = " or ".join(map(repr, _ROLE_KINDS))
                self.error("E101", f"expected {roles}, found {role!r}", i)
                self.i = i
                self.sync_statement()
                return
            i += 1
        self.i = i
        self.parse_element(kind, keyword)

    def parse_id(self) -> int | None:
        """The index of a valid identifier token; the current token moves past it."""
        i = self.i
        tok = self.toks[i]
        if tok in KEYWORDS:
            self.error("E104", f"reserved word {tok!r} used as identifier", i)
            self.i = i + 1
            return None
        if tok[:1] in _NON_WORD:
            self.expected("identifier", i)
            return None
        self.i = i + 1
        if not is_valid_id(tok):
            self.error("E005", f"invalid identifier {tok!r}", i)
            return None
        return i

    def choice(self, choices: Collection[str], code: str, what: str) -> str | None:
        """Read one word of ``choices``, or report ``code`` at it and return None."""
        i = self.i
        tok = self.toks[i]
        if tok:
            self.i = i + 1
        if tok in choices:
            return tok
        expected = ", ".join(choices)
        self.error(code, f"unknown {what} {tok!r} (expected one of: {expected})", i)
        return None

    def add_element(self, kind: ElementKind, i: int, name: str, attrs: dict) -> bool:
        """Declare the element whose id is token ``i``; the parser checked its id and attrs."""
        id = self.toks[i]
        try:
            self.model._add_element(kind, id, name, None, attrs)
        except ModelError as err:
            self.error(err.code, err.message, i)
            return False
        self.spans.starts[id] = self.starts[i]
        return True

    def parse_element(self, kind: ElementKind, keyword: str) -> None:
        toks = self.toks
        entries = STATEMENTS[kind].entries
        ident = self.parse_id()
        i = self.i
        tok = toks[i]
        if tok[:1] == '"':
            name = tok[1:-1]
            i += 1
        else:
            self.expected(f"{keyword} name string", i)
            name = ""
        attrs: dict[str, object] = {}
        # Entry key -> (id token index, name) per reference; only a nested
        # declaration has a name.
        refs: dict[str, list[tuple[int, str]]] = {}
        seen_single: set[str] = set()
        if entries and toks[i] == "{":
            i += 1
            while (tok := toks[i]) and tok != "}":
                if tok in STATEMENT_KEYWORDS:
                    self.error("E101", "expected an entry or '}'", i)
                    break
                self.i = i
                self.parse_entry(kind, entries, attrs, refs, seen_single)
                # Defensive: never loop without progress.
                i = self.i if self.i != i else i + 1
            if tok == "}":
                i += 1
        self.i = i
        if ident is None:
            return
        for key, value in attrs.items():  # the model keeps each list attr as a tuple
            if value.__class__ is list:
                attrs[key] = tuple(value)
        self.add_element(kind, ident, name, attrs)
        element_id = toks[ident]
        # Relations are queued in entry order; nested elements follow their owner.
        for key, entry in entries.items():
            for ref, ref_name in refs.get(key, ()):
                if entry.nested and not self.add_element(entry.nested, ref, ref_name, {}):
                    continue
                if entry.owner_is_source:
                    self.rel_specs += (entry.relation, element_id, toks[ref], ref)
                else:
                    self.rel_specs += (entry.relation, toks[ref], element_id, ref)

    def parse_entry(
        self,
        kind: ElementKind,
        entries: dict[str, Entry],
        attrs: dict[str, object],
        refs: dict[str, list[tuple[int, str]]],
        seen_single: set[str],
    ) -> None:
        toks = self.toks
        i = self.i
        key = toks[i]
        if key in _NESTED_OWNER:
            if key not in entries:
                owner = _NESTED_OWNER[key]
                self.error("E101", f"{key} declarations are only allowed inside {owner} blocks", i)
                self.i = i + 1
                self.sync_entry()
                return
            self.i = i + 1
            ident = self.parse_id()
            name = self.expect_string(f"{key} name string")
            if ident is not None:
                refs.setdefault(key, []).append((ident, name or ""))
            self.expect(";")
            return
        if key[:1] in _NON_WORD:
            self.expected("an entry or '}'", i)
            self.sync_entry()
            return
        if toks[i + 1] == ":":
            self.i = i + 2
        else:
            self.i = i + 1
            self.expected("':'", i + 1)
        entry = entries.get(key)
        if entry is None:
            self.error("E002", f"attr {key!r} is not allowed on {kind}", i)
            self.sync_entry()
            return
        if entry.single:
            if key in seen_single:
                self.error("E130", f"repeated entry {key!r}", i)
            seen_single.add(key)
        self.parse_entry_value(key, entry, attrs, refs)

    def parse_entry_value(
        self,
        key: str,
        entry: Entry,
        attrs: dict[str, object],
        refs: dict[str, list[tuple[int, str]]],
    ) -> None:
        toks = self.toks
        if entry.relation is not None:
            ids = refs.setdefault(key, [])
            while True:
                ident = self.parse_id()
                if ident is not None:
                    ids.append((ident, ""))
                if entry.single or toks[self.i] != ",":
                    break
                self.i += 1
        elif entry.form == "word":
            word = self.choice(entry.leaves, "E123", "runtime target")
            if word:
                attrs[key] = word
        else:
            if entry.form == "cost":
                leaf = COST_WORDS.get(self.choice(COST_WORDS, "E124", "cost kind"))
            else:
                leaf = self.parse_leaf(entry.leaves, key)
            severity: tuple[str, ...] = ()
            if entry.form == "hinders":
                severity = (DEFAULT_RISK_SEVERITY,)
                if toks[self.i] == "severity":
                    self.i += 1
                    self.expect(":")
                    word = self.choice(SEVERITY_LEVELS, "E122", "severity level")
                    severity = (word or DEFAULT_RISK_SEVERITY,)
            desc = self.expect_string("description string")
            if leaf:
                attrs.setdefault(key, []).append((leaf, *severity, desc or ""))
        i = self.i
        if toks[i] == ";":
            self.i = i + 1
        else:
            self.expected("';'", i)

    def parse_leaf(self, expected: tuple[str, ...], what: str) -> str | None:
        i = self.i
        word = self.toks[i]
        if word[:1] in _NON_WORD:
            self.expected("a taxonomy leaf", i)
            return None
        self.i = i + 1
        if word in expected:
            return word
        if is_leaf(word):
            self.error(
                "E125",
                f"leaf {word!r} is from the wrong branch for {what} "
                f"(expected one of: {', '.join(expected)})",
                i,
            )
            return None
        suggestion = suggest_leaf(word)
        hint = f" (did you mean {suggestion!r}?)" if suggestion else ""
        self.error("E120", f"unknown taxonomy leaf {word!r}{hint}", i)
        return None

    # -- phase 2 -------------------------------------------------------------

    def finish(self) -> AlignmentModel | None:
        if self.model is not None:
            add = self.model._add_relation
            specs = iter(self.rel_specs)
            for kind, source, target, i in zip(specs, specs, specs, specs):
                try:
                    add(kind, source, target)
                except ModelError as err:
                    self.error(err.code, err.message, i)
        if any(d.severity is Severity.ERROR for d in self.diags):
            return None
        return self.model


def parse(text: str, file: str = "<input>") -> ParseResult:
    """Parse ``.dsa`` source text into an :class:`AlignmentModel`."""
    parser = _Parser(text, file)
    parser.parse_file()
    model = parser.finish()
    return ParseResult(model=model, diagnostics=parser.diags, spans=parser.spans)


def load_file(path) -> ParseResult:
    """Parse a ``.dsa`` file. I/O failures become E190/E191 diagnostics.

    A leading byte-order mark is dropped and CRLF line ends become LF.
    """
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
        # As the "utf-8-sig" codec would, whose first use imports a module.
        text = data.removeprefix(BOM_UTF8).decode("utf-8")
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

    refs: dict[str, dict[str, list[str]]] = {}  # owner id -> {entry key: other ends}
    nested: set[str] = set()  # ids declared inside their owner's statement
    by_id = model._by_id
    for _, kind, source, target in model._relations:
        owner, other = source, target
        found = _ENTRY_OF_RELATION.get((kind, by_id[owner].kind, True))
        if found is None:
            owner, other = other, owner
            found = _ENTRY_OF_RELATION.get((kind, by_id[owner].kind, False))
        if found is None:
            raise ModelError(
                "E140", f"{kind} from {source!r} to {target!r} is not expressible in the DSL"
            )
        key, entry = found
        others = refs.setdefault(owner, {}).setdefault(key, [])
        if entry.single and others:
            raise ModelError("E140", f"a second {key!r} entry on {owner!r} is not expressible")
        if entry.nested:
            if other in nested:
                raise ModelError("E140", f"{key} {other!r} is declared by more than one owner")
            nested.add(other)
        others.append(other)

    # A blank line separates statements, except two one-line statements with
    # the same keyword.  ``last`` is the previous one-line statement's
    # keyword, "" after a block, None before the first statement.
    out: list[str] = [""]  # the system line, quoted after every element
    last: str | None = None
    for e in by_id.values():
        id, attrs = e.id, e.attrs
        if id in KEYWORDS:
            raise ModelError("E140", f"reserved word {id!r} is not expressible as an id")
        if e.description is not None:
            raise ModelError("E140", f"the description of {id!r} is not expressible")
        if e.kind in _NESTED:
            if id not in nested:
                key, owner = _NESTED[e.kind]
                raise ModelError("E140", f"{key} {id!r} has no owning {owner}")
            continue
        statement = STATEMENTS.get(e.kind)
        if statement is None:
            raise ModelError("E140", f"{e.kind} elements are not expressible in the DSL")
        keyword = statement.keyword
        role = f"{statement.role} " if statement.role else ""
        header = f"  {keyword} {role}{id} {_quote(e.name)}"
        keyed = refs.get(id, {})
        body: list[str] = []
        for key, entry in statement.entries.items():
            if key in keyed:  # a relation entry
                if entry.nested:
                    body += [f"    {key} {ref} {_quote(by_id[ref].name)};" for ref in keyed[key]]
                else:
                    body.append(f"    {key}: {', '.join(keyed[key])};")
            elif key in attrs:
                value, form = attrs[key], entry.form
                if form == "word":
                    body.append(f"    {key}: {value};")
                elif form == "hinders":
                    body += [
                        f"    {key}: {leaf} severity: {severity} {_quote(desc)};"
                        for leaf, severity, desc in value
                    ]
                else:  # only a cost leaf has a surface word of its own
                    body += [
                        f"    {key}: {_COST_LEAF_TO_WORD.get(leaf, leaf)} {_quote(desc)};"
                        for leaf, desc in value
                    ]
        if last is not None and (body or last != keyword):
            out.append("")
        out += (f"{header} {{", *body, "  }") if body else (header,)
        last = "" if body else keyword
    out[0] = f"system {_quote(model.system_name)} {{"
    out.append("}")
    return "\n".join(out) + "\n"
