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
from itertools import accumulate, compress, count, islice
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
KEYWORDS = (
    frozenset(_STATEMENT_KINDS)
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
    ``SourceSpan`` on lookup; the parse sums no token offsets until the first
    lookup or diagnostic needs one.
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
    """Element id -> the ``SourceSpan`` of its id token, built on lookup.

    ``token`` is the one place a token index becomes a ``SourceSpan``: the
    parser's diagnostics and each lookup call it.  ``index`` maps each id to
    its token index.  ``starts`` holds the token start offsets once the
    lexer or a parser diagnostic has summed them; otherwise the first lookup
    lexes the text again and sums them, so a parse keeps no token list.
    """

    __slots__ = ("text", "file", "index", "starts", "lines")

    def __init__(self, text: str, file: str, starts: list[int] | None) -> None:
        self.text, self.file, self.index, self.starts, self.lines = text, file, {}, starts, None

    def start(self, i: int) -> int:
        """The start offset of token ``i``."""
        if self.starts is None:
            self.starts = _starts(*_lex(self.text)[:2])
        return self.starts[i]

    def at(self, start: int, length: int) -> SourceSpan:
        if self.lines is None:
            # Line n + 1 starts after the first n lines and their n line feeds.
            lengths = map(len, self.text.split("\n"))
            self.lines = list(map(add, accumulate(lengths, initial=0), count()))
        line = bisect_right(self.lines, start)
        return SourceSpan(self.file, line, start - self.lines[line - 1] + 1, length)

    def token(self, i: int, tok: str) -> SourceSpan:
        """The span of token ``i``, whose text is ``tok``."""
        start = self.start(i)
        length = len(tok)
        if tok[:1] == '"':  # an escaped or unterminated string is longer in the source
            m = _TOKEN_RE.match(self.text, start)
            length = len(m[1] or m[2])
        return self.at(start, length)

    def __getitem__(self, id: str) -> SourceSpan:
        return self.token(self.index[id], id)

    def __contains__(self, id: object) -> bool:  # without building the span
        return id in self.index

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


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


def _starts(toks: list[str], trails: list[str]) -> list[int]:
    """Each token's start offset, summed from the token and trail lengths before it.

    ``trails[0]`` is the text's leading blanks and ``trails[k + 1]`` follows
    ``toks[k]``.  EOF starts at the '#' of a comment that ends the file.
    """
    lengths = map(add, map(len, toks), map(len, islice(trails, 1, None)))
    starts = list(accumulate(lengths, initial=len(trails[0])))
    tail = trails[-1]
    comment = tail.find("#", tail.rfind("\n") + 1)
    if comment >= 0:
        starts[-1] -= len(tail) - comment
    return starts


def _lex(text: str) -> tuple[list[str], list[str] | None, list[int] | None, list[_Finding]]:
    """Tokens, their trails or their start offsets, and the lexer's findings in source order.

    A token is its source text, except that a string token is its value in
    quotes.  The last token is "" at the end of the file or, when the file
    ends in a comment, at that comment's '#'.  The offsets are summed only
    when there are odd lexemes to report, and the trails are None then;
    otherwise the offsets are None and ``_starts(toks, trails)`` gives them.
    """
    # The leading ';' is a token whose trail takes the text's leading blanks.
    parts = _TOKEN_RE.split(";" + text)  # "", plain, odd, trail per token, then ""
    toks, odd, trails = parts[5::4], parts[6::4], parts[3::4]
    if not any(odd):
        toks.append("")
        return toks, trails, None, []
    at = list(compress(range(len(odd)), odd))
    for k in at:  # an odd lexeme's plain group is None
        toks[k] = odd[k]
    toks.append("")
    starts = _starts(toks, trails)
    found: list[_Finding] = []
    dropped = False
    for k in at:
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
    return toks, None, starts, found


# ---------------------------------------------------------------------------
# Taxonomy-leaf suggestions (plain Levenshtein over the 19 leaves)


def _edit_distance(a: str, b: str, limit: int) -> int:
    """The edit distance of ``a`` and ``b`` if it is below ``limit``, else ``limit``.

    The distance is at least the length difference and at least the minimum
    of any table row, as row minima never decrease, so either stops the scan.
    """
    if abs(len(a) - len(b)) >= limit:
        return limit
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        if min(cur) >= limit:
            return limit
        prev = cur
    return min(prev[-1], limit)


def suggest_leaf(word: str) -> str | None:
    """Closest taxonomy leaf within two edits, ties by tree order."""
    best: str | None = None
    best_d = 3  # one more than the farthest suggestion
    for leaf in ALL_LEAVES:
        d = _edit_distance(word, leaf, best_d)
        if d < best_d:
            best, best_d = leaf, d
    return best


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """Recursive descent over ``_lex``'s tokens, threading one token index.

    Each grammar method takes the index of its first token and returns the
    index to read on from, which never moves past the EOF token.  Tokens are
    strings, so each kind test reads the token's text: "" is EOF, a string
    starts with a quote, and a word starts with none of ``_NON_WORD``.  A
    statement is read in one loop that follows its ``model.STATEMENTS`` row;
    the ``*_error`` helpers report a token that is not the one expected and
    return the index to read on from.
    """

    def __init__(self, text: str, file: str):
        self.toks, self.trails, starts, found = _lex(text)
        self.spans = _Spans(text, file, starts)
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
        if self.spans.starts is None:  # sum the parser's own lists rather than lex again
            self.spans.starts = _starts(self.toks, self.trails)
        return self.spans.token(i, self.toks[i])

    def error(self, code: str, message: str, i: int) -> None:
        self.diags.append(Diagnostic(code, Severity.ERROR, message, location=self.span(i)))

    def expected(self, what: str, i: int) -> None:
        """Report E101: token ``i`` is not ``what``."""
        shown = self.toks[i] or "end of file"
        self.error("E101", f"expected {what}, found {shown!r}", i)

    def expect(self, punct: str, i: int) -> int:
        """The index past token ``i`` if it is ``punct``; else report E101 and stay."""
        if self.toks[i] == punct:
            return i + 1
        self.expected(repr(punct), i)
        return i

    def id_error(self, i: int) -> int:
        """Report why token ``i`` is not a valid identifier."""
        tok = self.toks[i]
        if tok in KEYWORDS:
            self.error("E104", f"reserved word {tok!r} used as identifier", i)
        elif tok[:1] in _NON_WORD:
            self.expected("identifier", i)
            return i
        else:
            self.error("E005", f"invalid identifier {tok!r}", i)
        return i + 1

    def choice_error(self, i: int, choices: Collection[str], code: str, what: str) -> int:
        """Report ``code``: token ``i`` is not one of ``choices``."""
        tok = self.toks[i]
        expected = ", ".join(choices)
        self.error(code, f"unknown {what} {tok!r} (expected one of: {expected})", i)
        return i + 1 if tok else i

    def leaf_error(self, i: int, expected: tuple[str, ...], what: str) -> int:
        """Report why token ``i`` is not one of the leaves ``expected``."""
        word = self.toks[i]
        if word[:1] in _NON_WORD:
            self.expected("a taxonomy leaf", i)
            return i
        if is_leaf(word):
            self.error(
                "E125",
                f"leaf {word!r} is from the wrong branch for {what} "
                f"(expected one of: {', '.join(expected)})",
                i,
            )
        else:
            suggestion = suggest_leaf(word)
            hint = f" (did you mean {suggestion!r}?)" if suggestion else ""
            self.error("E120", f"unknown taxonomy leaf {word!r}{hint}", i)
        return i + 1

    def skip_entry(self, i: int) -> int:
        """The index past the entry at ``i``: after its ';', or at '}' or a statement."""
        toks = self.toks
        while (tok := toks[i]) and tok != "}" and tok not in _STATEMENT_KINDS:
            i += 1
            if tok == ";":
                break
        return i

    def skip_statement(self, i: int) -> int:
        """The index of the next statement or '}' at the depth of token ``i``."""
        toks = self.toks
        depth = 0
        while tok := toks[i]:
            if depth == 0 and (tok in _STATEMENT_KINDS or tok == "}"):
                break
            if tok == "{":
                depth += 1
            elif tok == "}":
                depth -= 1
            i += 1
        return i

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
        i = toks.index("system") + 1
        name = None
        if (tok := toks[i])[:1] == '"':
            name = tok[1:-1]
            i += 1
            if not name:
                self.error("E000", "system name must not be empty", i - 1)
        else:
            self.expected("system name string", i)
        # "?" keeps parsing alive on a missing name; finish() drops the model.
        self.model = AlignmentModel(name or "?")
        i = self.expect("{", i)
        while (tok := toks[i]) and tok != "}":
            i = max(self.parse_statement(i), i + 1)  # defensive: never loop without progress
        i = self.expect("}", i)
        if tok := toks[i]:
            if tok == "system":
                self.error("E101", "only one system block is allowed per file", i)
            else:
                self.expected("end of file", i)

    def add_element(self, kind: ElementKind, i: int, name: str, attrs: tuple) -> bool:
        """Declare the element whose id is token ``i``; the parser checked its id and attrs."""
        id = self.toks[i]
        try:
            self.model._add_element(kind, id, name, None, attrs)
        except ModelError as err:
            self.error(err.code, err.message, i)
            return False
        self.spans.index[id] = i
        return True

    def parse_statement(self, i: int) -> int:
        """Read the statement at token ``i``: its keyword, id and name, then
        each entry by its row in ``model.STATEMENTS``; return the index after it."""
        toks, declared = self.toks, self.spans.index
        keyword = toks[i]
        if keyword not in _STATEMENT_KINDS:
            self.expected("a statement", i)
            return self.skip_statement(i + 1)
        i += 1
        kind = _STATEMENT_KINDS[keyword]
        if kind is None:
            kind = _ROLE_KINDS.get(toks[i])
            if kind is None:
                roles = " or ".join(map(repr, _ROLE_KINDS))
                self.error("E101", f"expected {roles}, found {toks[i]!r}", i)
                return self.skip_statement(i)
            i += 1
        ident = i
        if (tok := toks[i]) not in KEYWORDS and is_valid_id(tok):
            i += 1
        else:
            ident, i = None, self.id_error(i)
        if (tok := toks[i])[:1] == '"':
            name = tok[1:-1]
            i += 1
        else:
            self.expected(f"{keyword} name string", i)
            name = ""
        entries = STATEMENTS[kind].entries
        attrs: dict[str, object] = {}
        refs: dict[str, list[int]] = {}  # entry key -> the id token of each reference
        seen_single: set[str] = set()
        if entries and toks[i] == "{":
            i += 1
            while True:
                key = toks[i]
                entry = entries.get(key)
                if entry is None:  # the end of the block, or an entry that is not this kind's
                    if key == "}":
                        i += 1
                        break
                    if not key:
                        break
                    if key in _STATEMENT_KINDS:
                        self.error("E101", "expected an entry or '}'", i)
                        break
                    if key in _NESTED_OWNER:
                        where = f"only allowed inside {_NESTED_OWNER[key]} blocks"
                        self.error("E101", f"{key} declarations are {where}", i)
                    elif key[:1] in _NON_WORD:
                        self.expected("an entry or '}'", i)
                    else:
                        self.expect(":", i + 1)
                        self.error("E002", f"attr {key!r} is not allowed on {kind}", i)
                    i = self.skip_entry(i)
                    continue
                relation, _, single, nested, form, leaves = entry
                at, i = i, i + 1
                if not nested:  # a nested declaration has no ':'
                    if toks[i] == ":":
                        i += 1
                    else:
                        self.expected("':'", i)
                if single:
                    if key in seen_single:
                        self.error("E130", f"repeated entry {key!r}", at)
                    seen_single.add(key)
                if relation is not None:
                    ids = refs.setdefault(key, [])
                    while True:  # an id declared before this reference passed the check
                        if (tok := toks[i]) in declared or tok not in KEYWORDS and is_valid_id(tok):
                            ids.append(i)
                            i += 1
                        else:
                            i = self.id_error(i)
                        # A nested declaration takes one id, then its name.
                        if single or nested or toks[i] != ",":
                            break
                        i += 1
                    if nested:
                        if toks[i][:1] == '"':
                            i += 1
                        else:
                            self.expected(f"{key} name string", i)
                elif form == "word":
                    if (tok := toks[i]) in leaves:
                        attrs[key] = tok
                        i += 1
                    else:
                        i = self.choice_error(i, leaves, "E123", "runtime target")
                else:
                    if form == "cost":
                        leaf = COST_WORDS.get(toks[i])
                        i = i + 1 if leaf else self.choice_error(i, COST_WORDS, "E124", "cost kind")
                    elif (leaf := toks[i]) in leaves:
                        i += 1
                    else:
                        leaf, i = None, self.leaf_error(i, leaves, key)
                    severity = None
                    if form == "hinders":
                        severity = DEFAULT_RISK_SEVERITY
                        if toks[i] == "severity":
                            i = self.expect(":", i + 1)
                            if (tok := toks[i]) in SEVERITY_LEVELS:
                                severity = tok
                                i += 1
                            else:
                                i = self.choice_error(i, SEVERITY_LEVELS, "E122", "severity level")
                    if (tok := toks[i])[:1] == '"':
                        desc = tok[1:-1]
                        i += 1
                    else:
                        self.expected("description string", i)
                        desc = ""
                    if leaf:  # the model keeps each list attr as a tuple
                        value = (leaf, desc) if severity is None else (leaf, severity, desc)
                        attrs[key] = attrs.get(key, ()) + (value,)
                if toks[i] == ";":
                    i += 1
                else:
                    self.expected("';'", i)
        if ident is None:
            return i
        self.add_element(kind, ident, name, tuple(attrs.items()))
        if not refs:
            return i
        element_id = toks[ident]
        # Relations are queued in entry order; nested elements follow their owner.
        for key, entry in entries.items():
            for ref in refs.get(key, ()):
                other = toks[ref]
                if entry.nested:
                    name = toks[ref + 1]  # the declaration's name, if it has one
                    name = name[1:-1] if name[:1] == '"' else ""
                    if not self.add_element(entry.nested, ref, name, ()):
                        continue
                ends = (element_id, other) if entry.owner_is_source else (other, element_id)
                self.rel_specs += (entry.relation, *ends, ref)
        return i

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
        # As the "utf-8-sig" codec would, whose first use imports a module.
        text = data.removeprefix(BOM_UTF8).decode("utf-8")
    except OSError as err:
        found = Diagnostic("E190", Severity.ERROR, f"cannot read {path}: {err.strerror}")
    except UnicodeDecodeError as err:
        found = Diagnostic("E191", Severity.ERROR, f"{path} is not valid UTF-8: {err.reason}")
    else:
        return parse(text.replace("\r\n", "\n"), file=str(path))
    return ParseResult(model=None, diagnostics=[found])


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
        found = _ENTRY_OF_RELATION.get((kind, by_id[owner][1], True))
        if found is None:
            owner, other = other, owner
            found = _ENTRY_OF_RELATION.get((kind, by_id[owner][1], False))
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
    for id, kind, name, description, attrs in by_id.values():
        if id in KEYWORDS:
            raise ModelError("E140", f"reserved word {id!r} is not expressible as an id")
        if description is not None:
            raise ModelError("E140", f"the description of {id!r} is not expressible")
        if kind in _NESTED:
            if id not in nested:
                key, owner = _NESTED[kind]
                raise ModelError("E140", f"{key} {id!r} has no owning {owner}")
            continue
        statement = STATEMENTS.get(kind)
        if statement is None:
            raise ModelError("E140", f"{kind} elements are not expressible in the DSL")
        keyword = statement.keyword
        role = f"{statement.role} " if statement.role else ""
        header = f"  {keyword} {role}{id} {_quote(name)}"
        keyed = refs.get(id, ())
        attrs = dict(attrs)
        body: list[str] = []
        for key, entry in statement.entries.items():
            if key in keyed:  # a relation entry
                if entry.nested:
                    body += [f"    {key} {ref} {_quote(by_id[ref][2])};" for ref in keyed[key]]
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
    out += ("}", "")  # the last line ends in a line feed too
    return "\n".join(out)
