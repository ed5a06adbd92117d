package xmlenc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ErrSyntax is returned for input outside the spec.md grammar.
var ErrSyntax = errors.New("xmlenc: syntax error")

const (
	// lineBuffer is the decoder's read buffer: a line that fits is parsed
	// where it lies, a longer one is first gathered in a spill buffer.
	lineBuffer = 64 << 10
	// maxLine bounds one line; a longer one is bufio.ErrTooLong.
	maxLine = 1 << 24
)

// Decoder streams records back out of the XML dialect. It is strictly
// line-oriented per the specification and decodes in place: every line is
// parsed where the read buffer holds it, into the one Record the decoder
// owns. Each attribute and child is read first in the form AppendRecord
// writes it, in one forward scan; whatever deviates from that form goes to
// the general scanner, which accepts the whole grammar. An op is one of
// spec.md's twelve names, shared by every record; the hashes, keywords and
// server tag of a record are substrings of one copy of its line, made when
// the first of them is needed. So a record with no string but its op costs
// no allocation and any other costs one. That is what makes analysis of
// huge datasets cheap.
type Decoder struct {
	r     *bufio.Reader
	meta  map[string]string
	rec   Record // the record Next fills and returns, again and again
	text  string // string(line) once a string field needs it, else ""
	long  []byte // spill buffer of lines longer than the read buffer
	rerr  error  // the reader's final error, returned once the data before it is used up
	done  bool
	lineN int
}

// NewDecoder parses the document header and positions the decoder before
// the first record. A *bufio.Reader of at least 64 KiB is read from
// directly; anything else is wrapped in one.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReaderSize(r, lineBuffer), meta: map[string]string{}}

	// Prologue: optional xml declaration, then the root element.
	line, err := d.nextLine()
	if err == nil && bytes.HasPrefix(line, []byte("<?xml")) {
		line, err = d.nextLine()
	}
	if err == io.EOF {
		return nil, fmt.Errorf("%w: missing root element", ErrSyntax)
	} else if err != nil {
		return nil, err
	}
	if err := d.parseRoot(line); err != nil {
		return nil, fmt.Errorf("%w: bad root element %q", ErrSyntax, line)
	}
	if d.meta["version"] != "1.0" {
		return nil, fmt.Errorf("%w: unsupported version %q", ErrSyntax, d.meta["version"])
	}
	return d, nil
}

// Meta returns the root element attributes (including "version").
func (d *Decoder) Meta() map[string]string { return d.meta }

// nextLine returns the next non-blank line, trimmed, as bytes of the read
// buffer: valid until the following call. A last line without a newline
// counts; a read error other than io.EOF discards the partial line before
// it.
func (d *Decoder) nextLine() ([]byte, error) {
	for d.rerr == nil {
		line, err := d.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			line, err = d.readLong(line)
		}
		if err != nil {
			d.rerr = err
			if err != io.EOF || len(line) == 0 {
				break
			}
		}
		d.lineN++
		if line = bytes.TrimSpace(line); len(line) > 0 {
			return line, nil
		}
	}
	return nil, d.rerr
}

// readLong gathers a line that overflowed the read buffer.
func (d *Decoder) readLong(head []byte) ([]byte, error) {
	d.long = append(d.long[:0], head...)
	for {
		more, err := d.r.ReadSlice('\n')
		d.long = append(d.long, more...)
		if err != bufio.ErrBufferFull {
			return d.long, err
		}
		if len(d.long) >= maxLine {
			return nil, bufio.ErrTooLong
		}
	}
}

// Next decodes the next record, or returns io.EOF after the closing root
// tag and the end of the input.
//
// The record belongs to the decoder: every call resets and refills the
// same one and returns the same pointer, so it is valid only until the
// next call. A caller that keeps a record keeps r.Clone(); the strings of
// a record are ordinary immutable strings and stay valid for as long as
// anything holds them.
func (d *Decoder) Next() (*Record, error) {
	if d.done {
		return nil, io.EOF
	}
	line, err := d.nextLine()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: missing </edtrace>", ErrSyntax)
		}
		return nil, err
	}
	if string(line) == "</edtrace>" {
		d.done = true
		// Nothing may follow the closing tag. Reading on to the end of the
		// input is also what makes a compressed stream check its trailer.
		if line, err = d.nextLine(); err == nil {
			return nil, fmt.Errorf("line %d: %w: content after </edtrace>: %q", d.lineN, ErrSyntax, trunc(line))
		} else if err != io.EOF {
			return nil, err
		}
		return nil, io.EOF
	}
	d.rec.Reset()
	if err := d.parseRecord(line); err != nil {
		return nil, fmt.Errorf("line %d: %w", d.lineN, err)
	}
	return &d.rec, nil
}

// Tokens inside a tag, after its name.
const (
	tokAttr      = iota // name="value": key and val are set
	tokOpen             // '>'
	tokSelfClose        // '/>'
)

// tagScanner walks one line tag by tag without copying anything out of
// it: tag consumes '<' and an element name, next the attributes and the
// tag's end, one token per call.
type tagScanner struct {
	line     []byte
	i        int    // next unread byte of line
	key, val []byte // of the last tokAttr; val is raw (still escaped)
	valAt    int    // val == line[valAt:valAt+len(val)]
}

// tag consumes '<' and the element name at the cursor.
func (s *tagScanner) tag() ([]byte, error) {
	rest := s.line[s.i:]
	if len(rest) < 2 || rest[0] != '<' {
		return nil, fmt.Errorf("%w: expected tag at %q", ErrSyntax, trunc(rest))
	}
	j := 1
	for j < len(rest) && isNameByte(rest[j]) {
		j++
	}
	if j == 1 {
		return nil, fmt.Errorf("%w: empty tag name at %q", ErrSyntax, trunc(rest))
	}
	s.i += j
	return rest[1:j], nil
}

// next consumes the next token of the open tag.
func (s *tagScanner) next() (int, error) {
	line, i := s.line, s.i
	for i < len(line) && line[i] == ' ' {
		i++
	}
	if i >= len(line) {
		return 0, fmt.Errorf("%w: unterminated tag", ErrSyntax)
	}
	switch line[i] {
	case '>':
		s.i = i + 1
		return tokOpen, nil
	case '/':
		if i+1 >= len(line) || line[i+1] != '>' {
			return 0, fmt.Errorf("%w: bad self-close at %q", ErrSyntax, trunc(line[i:]))
		}
		s.i = i + 2
		return tokSelfClose, nil
	}
	j := i
	for j < len(line) && isNameByte(line[j]) {
		j++
	}
	if j == i || j+1 >= len(line) || line[j] != '=' || line[j+1] != '"' {
		return 0, fmt.Errorf("%w: bad attribute at %q", ErrSyntax, trunc(line[i:]))
	}
	n := bytes.IndexByte(line[j+2:], '"')
	if n < 0 {
		return 0, fmt.Errorf("%w: unterminated attribute value at %q", ErrSyntax, trunc(line[i:]))
	}
	s.key, s.valAt, s.val = line[i:j], j+2, line[j+2:j+2+n]
	s.i = j + 2 + n + 1
	return tokAttr, nil
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

func trunc(s []byte) []byte {
	if len(s) > 32 {
		return append(s[:32:32], "..."...)
	}
	return s
}

func unescape(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '&' {
			b.WriteByte(s[i])
			continue
		}
		rest := s[i:]
		switch {
		case strings.HasPrefix(rest, "&amp;"):
			b.WriteByte('&')
			i += 4
		case strings.HasPrefix(rest, "&lt;"):
			b.WriteByte('<')
			i += 3
		case strings.HasPrefix(rest, "&gt;"):
			b.WriteByte('>')
			i += 3
		case strings.HasPrefix(rest, "&quot;"):
			b.WriteByte('"')
			i += 5
		case strings.HasPrefix(rest, "&apos;"):
			b.WriteByte('\'')
			i += 5
		default:
			b.WriteByte('&')
		}
	}
	return b.String()
}

// parseRoot parses the <edtrace ...> line into d.meta.
func (d *Decoder) parseRoot(line []byte) error {
	s := tagScanner{line: line}
	name, err := s.tag()
	if err != nil {
		return err
	}
	if string(name) != "edtrace" {
		return ErrSyntax
	}
	for {
		tok, err := s.next()
		if err != nil {
			return err
		}
		if tok != tokAttr {
			if tok != tokOpen || s.i != len(line) {
				return ErrSyntax
			}
			return nil
		}
		d.meta[string(s.key)] = unescape(string(s.val))
	}
}

// sub returns line[i:j] as an immutable string. The strings of a record
// are substrings of one copy of its line, made by the first call, so a
// record that is kept (Clone) pins one line of text and nothing else.
func (d *Decoder) sub(line []byte, i, j int) string {
	if d.text == "" {
		d.text = string(line)
	}
	return d.text[i:j]
}

// str returns the attribute value the scanner is on as an immutable
// string.
func (d *Decoder) str(s *tagScanner) string {
	if bytes.IndexByte(s.val, '&') >= 0 {
		return unescape(string(s.val))
	}
	return d.sub(s.line, s.valAt, s.valAt+len(s.val))
}

// op returns the op value line[i:j], which holds no entity: one of
// opNames is that string, not a piece of the line.
func (d *Decoder) op(line []byte, i, j int) string {
	for _, name := range opNames {
		if string(line[i:j]) == name {
			return name
		}
	}
	return d.sub(line, i, j)
}

// parseRecord parses line, one full <r> element, into d.rec. Every
// attribute and child is tried first in AppendRecord's form (fastAttr,
// fastChild); one that is not in it is read again from its start by the
// tagScanner, which also words every error.
func (d *Decoder) parseRecord(line []byte) error {
	rec := &d.rec
	d.text = ""
	s := tagScanner{line: line}
	name, err := s.tag()
	if err != nil {
		return err
	}
	if string(name) != "r" {
		return fmt.Errorf("%w: expected <r>, got <%s>", ErrSyntax, name)
	}
	var tok int
	for {
		if j := d.fastAttr(line, s.i); j > 0 {
			s.i = j
			continue
		}
		if tok, err = s.next(); err != nil {
			return err
		}
		if tok != tokAttr {
			break
		}
		ok := true
		switch string(s.key) {
		case "t":
			var perr error
			rec.T, perr = strconv.ParseFloat(string(s.val), 64)
			ok = perr == nil
		case "c":
			rec.Client, ok = parseUint32(s.val)
		case "op":
			rec.Op = d.str(&s)
		case "dir":
			switch string(s.val) {
			case "q":
				rec.Dir = DirQuery
			case "a":
				rec.Dir = DirAnswer
			default:
				ok = false
			}
		case "srv":
			rec.Server = d.str(&s)
		case "minkb":
			rec.MinKB, ok = parseUint(s.val, math.MaxUint64)
		case "maxkb":
			rec.MaxKB, ok = parseUint(s.val, math.MaxUint64)
		case "users":
			rec.Users, ok = parseUint32(s.val)
		case "files":
			rec.FilesCount, ok = parseUint32(s.val)
		case "n":
			rec.Accepted, ok = parseUint32(s.val)
		default:
			return fmt.Errorf("%w: unknown attribute %q on <r>", ErrSyntax, s.key)
		}
		if !ok {
			return fmt.Errorf("%w: attribute %s=%q", ErrSyntax, s.key, s.val)
		}
	}
	if tok == tokSelfClose {
		if s.i != len(line) {
			return fmt.Errorf("%w: trailing content %q", ErrSyntax, trunc(line[s.i:]))
		}
		return nil
	}
	// Children until </r>.
	for {
		if j := d.fastChild(line, s.i); j > 0 {
			s.i = j
			continue
		}
		if rest := line[s.i:]; string(rest) == "</r>" {
			return nil
		} else if bytes.HasPrefix(rest, []byte("</r>")) {
			return fmt.Errorf("%w: trailing content %q", ErrSyntax, trunc(rest))
		}
		if err := d.parseChild(&s); err != nil {
			return err
		}
	}
}

// cursor reads a line in the form AppendRecord writes. Its methods
// consume what they read and report whether it was there; after a false
// the caller gives up on the attribute or child it was reading.
//
// A literal is matched as string(c.next(len(lit))) == lit, written out
// where it is needed: against a constant that short the compiler compares
// a word or two in place, while a literal passed as an argument costs a
// call of memequal, several times slower on the shortest records.
type cursor struct {
	line []byte
	i    int
}

// next returns the n bytes at the cursor, fewer at the end of the line.
func (c *cursor) next(n int) []byte {
	return c.line[c.i:min(c.i+n, len(c.line))]
}

// end consumes the "/>" that closes a child.
func (c *cursor) end() bool {
	if string(c.next(2)) != "/>" {
		return false
	}
	c.i += 2
	return true
}

// num consumes an unsigned decimal no greater than limit and the quote
// that closes it.
func (c *cursor) num(limit uint64) (uint64, bool) {
	v, n, ok := digits(c.line[c.i:], limit)
	c.i += n
	if !ok || c.i == len(c.line) || c.line[c.i] != '"' {
		return 0, false
	}
	c.i++
	return v, true
}

func (c *cursor) num32() (uint32, bool) {
	v, ok := c.num(math.MaxUint32)
	return uint32(v), ok
}

// text consumes a value with no '&' in it and the quote that closes it,
// and returns where the value lies in the line.
func (c *cursor) text() (i, j int, ok bool) {
	i = c.i
	n := bytes.IndexByte(c.line[i:], '"')
	if n < 0 || bytes.IndexByte(c.line[i:i+n], '&') >= 0 {
		return 0, 0, false
	}
	c.i = i + n + 1
	return i, i + n, true
}

// value consumes a string value (see text) as d.sub of the line.
func (d *Decoder) value(c *cursor) (string, bool) {
	i, j, ok := c.text()
	if !ok {
		return "", false
	}
	return d.sub(c.line, i, j), true
}

// fastAttr reads the <r> attribute at line[i:] if it is in AppendRecord's
// form — one space, a name of the record's, a value in range with no
// entity, the closing quote — sets it in d.rec and returns the index after
// it. Anything else returns 0. A value given up on may have set its field
// already: the tagScanner reads the same attribute next, and sets the same
// field again or fails.
func (d *Decoder) fastAttr(line []byte, i int) int {
	c := cursor{line: line, i: i}
	if len(line)-i < 2 || line[i] != ' ' {
		return 0
	}
	rec := &d.rec
	ok := false
	switch line[i+1] {
	case 't':
		if string(c.next(4)) == ` t="` {
			c.i += 4
			rec.T, ok = c.time()
		}
	case 'c':
		if string(c.next(4)) == ` c="` {
			c.i += 4
			rec.Client, ok = c.num32()
		}
	case 'o':
		if string(c.next(5)) == ` op="` {
			c.i += 5
			var from, to int
			if from, to, ok = c.text(); ok {
				rec.Op = d.op(line, from, to)
			}
		}
	case 'd':
		switch string(c.next(8)) {
		case ` dir="q"`:
			rec.Dir, ok = DirQuery, true
		case ` dir="a"`:
			rec.Dir, ok = DirAnswer, true
		}
		c.i += 8
	case 's':
		if string(c.next(6)) == ` srv="` {
			c.i += 6
			rec.Server, ok = d.value(&c)
		}
	case 'm':
		switch string(c.next(8)) {
		case ` minkb="`:
			c.i += 8
			rec.MinKB, ok = c.num(math.MaxUint64)
		case ` maxkb="`:
			c.i += 8
			rec.MaxKB, ok = c.num(math.MaxUint64)
		}
	case 'u':
		if string(c.next(8)) == ` users="` {
			c.i += 8
			rec.Users, ok = c.num32()
		}
	case 'f':
		if string(c.next(8)) == ` files="` {
			c.i += 8
			rec.FilesCount, ok = c.num32()
		}
	case 'n':
		if string(c.next(4)) == ` n="` {
			c.i += 4
			rec.Accepted, ok = c.num32()
		}
	}
	if !ok {
		return 0
	}
	return c.i
}

// fastChild reads the child at line[i:] if it is in AppendRecord's form —
// <f id s [n] [ty]/>, <fr id/>, <s c/> or <k h/>, attributes in that
// order, one space apart, values in range with no entity — appends it to
// d.rec and returns the index after it. Anything else returns 0 and leaves
// d.rec as it was.
func (d *Decoder) fastChild(line []byte, i int) int {
	c := cursor{line: line, i: i}
	rec := &d.rec
	switch { // the most frequent child first
	case string(c.next(6)) == `<s c="`:
		c.i += 6
		id, ok := c.num32()
		if !ok || !c.end() {
			return 0
		}
		rec.Sources = append(rec.Sources, id)
	case string(c.next(7)) == `<f id="`:
		c.i += 7
		var fi FileInfo
		var ok bool
		if fi.ID, ok = c.num32(); !ok || string(c.next(4)) != ` s="` {
			return 0
		}
		c.i += 4
		if fi.SizeKB, ok = c.num(math.MaxUint64); !ok {
			return 0
		}
		if string(c.next(4)) == ` n="` {
			c.i += 4
			if fi.NameHash, ok = d.value(&c); !ok {
				return 0
			}
		}
		if string(c.next(5)) == ` ty="` {
			c.i += 5
			if fi.TypeHash, ok = d.value(&c); !ok {
				return 0
			}
		}
		if !c.end() {
			return 0
		}
		rec.Files = append(rec.Files, fi)
	case string(c.next(8)) == `<fr id="`:
		c.i += 8
		id, ok := c.num32()
		if !ok || !c.end() {
			return 0
		}
		rec.FileRefs = append(rec.FileRefs, id)
	case string(c.next(6)) == `<k h="`:
		c.i += 6
		h, ok := d.value(&c)
		if !ok || !c.end() {
			return 0
		}
		rec.Keywords = append(rec.Keywords, h)
	default:
		return 0
	}
	return c.i
}

// parseChild parses the child element at the cursor into d.rec. Every
// child has one required attribute; of a repeated attribute the first
// counts, and attributes the grammar does not name are skipped.
func (d *Decoder) parseChild(s *tagScanner) error {
	name, err := s.tag()
	if err != nil {
		return err
	}
	var kind byte
	var req string
	switch string(name) {
	case "f":
		kind, req = 'f', "id"
	case "fr":
		kind, req = 'r', "id"
	case "s":
		kind, req = 's', "c"
	case "k":
		kind, req = 'k', "h"
	default:
		return fmt.Errorf("%w: unknown child <%s>", ErrSyntax, name)
	}
	var (
		id   uint32 // the required attribute of f, fr and s
		hash string // that of k
		fi   FileInfo

		seenReq, seenSize, seenName, seenType bool
	)
	for {
		tok, err := s.next()
		if err != nil {
			return err
		}
		if tok == tokOpen {
			return fmt.Errorf("%w: child <%s> must be self-closing", ErrSyntax, name)
		}
		if tok == tokSelfClose {
			break
		}
		ok := true
		switch {
		case string(s.key) == req:
			if seenReq {
				break
			}
			seenReq = true
			if kind == 'k' {
				hash = d.str(s)
			} else {
				id, ok = parseUint32(s.val)
			}
		case kind != 'f':
		case string(s.key) == "s" && !seenSize:
			seenSize = true
			fi.SizeKB, ok = parseUint(s.val, math.MaxUint64)
		case string(s.key) == "n" && !seenName:
			seenName = true
			fi.NameHash = d.str(s)
		case string(s.key) == "ty" && !seenType:
			seenType = true
			fi.TypeHash = d.str(s)
		}
		if !ok {
			return fmt.Errorf("%w: <%s %s=%q>", ErrSyntax, name, s.key, s.val)
		}
	}
	if !seenReq {
		return fmt.Errorf("%w: <%s> without %s", ErrSyntax, name, req)
	}
	rec := &d.rec
	switch kind {
	case 'f':
		fi.ID = id
		rec.Files = append(rec.Files, fi)
	case 'r':
		rec.FileRefs = append(rec.FileRefs, id)
	case 's':
		rec.Sources = append(rec.Sources, id)
	case 'k':
		rec.Keywords = append(rec.Keywords, hash)
	}
	return nil
}

// digits reads the decimal digits that start b, up to the first other
// byte: their value and count. ok is false when there are none or their
// value is over limit.
func digits(b []byte, limit uint64) (v uint64, n int, ok bool) {
	for ; n < len(b); n++ {
		c := uint64(b[n] - '0')
		if c > 9 {
			break
		}
		// Below the first bound no digit can wrap v around; above it, the
		// exact test.
		if v > (math.MaxUint64-9)/10 && (v > math.MaxUint64/10 || v*10 > math.MaxUint64-c) {
			return 0, n, false
		}
		v = v*10 + c
	}
	return v, n, n > 0 && v <= limit
}

// parseUint parses an unsigned decimal no greater than limit: digits
// only, like strconv.ParseUint in base 10.
func parseUint(b []byte, limit uint64) (uint64, bool) {
	v, n, ok := digits(b, limit)
	return v, ok && n == len(b)
}

func parseUint32(b []byte) (uint32, bool) {
	v, ok := parseUint(b, math.MaxUint32)
	return uint32(v), ok
}

// millis reads the form appendTime writes — digits, '.', three digits —
// from the start of b: the value in thousandths and the bytes read. ok is
// false for any other form and for 2⁵³ thousandths or more. Below that
// bound float64(ms)/1000 is bit for bit what strconv.ParseFloat gives for
// the same bytes: both operands are exact, and the division rounds the
// exact quotient once, to nearest even, as ParseFloat rounds the decimal.
func millis(b []byte) (ms uint64, n int, ok bool) {
	for ; n < len(b) && b[n]-'0' <= 9; n++ {
		if ms = ms*10 + uint64(b[n]-'0'); ms >= 1<<53 {
			return 0, 0, false
		}
	}
	if n == 0 || len(b)-n < 4 || b[n] != '.' {
		return 0, 0, false
	}
	for _, c := range b[n+1 : n+4] {
		if c -= '0'; c > 9 {
			return 0, 0, false
		}
		ms = ms*10 + uint64(c)
	}
	return ms, n + 4, ms < 1<<53
}

// time consumes t's value in appendTime's form and the quote that closes
// it.
func (c *cursor) time() (float64, bool) {
	ms, n, ok := millis(c.line[c.i:])
	if c.i += n; !ok || c.i == len(c.line) || c.line[c.i] != '"' {
		return 0, false
	}
	c.i++
	return float64(ms) / 1000, true
}
