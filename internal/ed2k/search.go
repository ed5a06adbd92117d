package ed2k

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Search expression node kinds on the wire. A search payload is a
// prefix-encoded boolean tree: operator nodes start with 0x00 followed by
// the operator byte, leaves start with the leaf kind.
const (
	exprOperator  = 0x00
	exprKeyword   = 0x01
	exprMetaStr   = 0x02
	exprMetaNum   = 0x03
	operatorAnd   = 0x00
	operatorOr    = 0x01
	operatorNot   = 0x02 // binary: left AND NOT right
	NumericMin    = 0x01
	NumericMax    = 0x02
	MetaNameSize  = 0x02 // numeric constraints address the size meta-tag
	MetaNameType  = 0x03 // string meta matches address the type meta-tag
	MetaNameAvail = 0x15
)

// SearchExpr is a node of a search expression tree.
//
// Exactly one of the following shapes is valid:
//   - Keyword: Kind == KindKeyword, Word set.
//   - String metadata match: Kind == KindMetaStr, Word and Meta set.
//   - Numeric constraint: Kind == KindMetaNum, Value, NumOp and Meta set.
//   - Operator: Kind is KindAnd/KindOr/KindNot with Left and Right set.
type SearchExpr struct {
	Kind  ExprKind
	Word  string
	Meta  byte
	NumOp byte
	Value uint32
	Left  *SearchExpr
	Right *SearchExpr
}

// ExprKind enumerates search tree node kinds.
type ExprKind uint8

// Expression node kinds.
const (
	KindKeyword ExprKind = iota
	KindMetaStr
	KindMetaNum
	KindAnd
	KindOr
	KindNot
)

// Keyword returns a leaf matching files whose name contains word.
func Keyword(word string) *SearchExpr {
	return &SearchExpr{Kind: KindKeyword, Word: word}
}

// TypeIs returns a leaf matching files whose type tag equals v.
func TypeIs(v string) *SearchExpr {
	return &SearchExpr{Kind: KindMetaStr, Word: v, Meta: MetaNameType}
}

// SizeAtLeast returns a numeric constraint size >= v.
func SizeAtLeast(v uint32) *SearchExpr {
	return &SearchExpr{Kind: KindMetaNum, Value: v, NumOp: NumericMin, Meta: MetaNameSize}
}

// SizeAtMost returns a numeric constraint size <= v.
func SizeAtMost(v uint32) *SearchExpr {
	return &SearchExpr{Kind: KindMetaNum, Value: v, NumOp: NumericMax, Meta: MetaNameSize}
}

// And combines two expressions conjunctively.
func And(l, r *SearchExpr) *SearchExpr {
	return &SearchExpr{Kind: KindAnd, Left: l, Right: r}
}

// Or combines two expressions disjunctively.
func Or(l, r *SearchExpr) *SearchExpr {
	return &SearchExpr{Kind: KindOr, Left: l, Right: r}
}

// AndNot matches l and excludes r.
func AndNot(l, r *SearchExpr) *SearchExpr {
	return &SearchExpr{Kind: KindNot, Left: l, Right: r}
}

// String renders the expression in a readable prefix form.
func (e *SearchExpr) String() string {
	if e == nil {
		return "<nil>"
	}
	switch e.Kind {
	case KindKeyword:
		return fmt.Sprintf("%q", e.Word)
	case KindMetaStr:
		return fmt.Sprintf("meta(0x%02X)=%q", e.Meta, e.Word)
	case KindMetaNum:
		op := ">="
		if e.NumOp == NumericMax {
			op = "<="
		}
		return fmt.Sprintf("meta(0x%02X)%s%d", e.Meta, op, e.Value)
	case KindAnd:
		return fmt.Sprintf("(AND %s %s)", e.Left, e.Right)
	case KindOr:
		return fmt.Sprintf("(OR %s %s)", e.Left, e.Right)
	case KindNot:
		return fmt.Sprintf("(ANDNOT %s %s)", e.Left, e.Right)
	}
	return "<invalid>"
}

// Keywords appends every keyword appearing in the tree to dst and returns
// it; the server's inverted index uses this to pre-select candidates.
func (e *SearchExpr) Keywords(dst []string) []string {
	if e == nil {
		return dst
	}
	switch e.Kind {
	case KindKeyword:
		return append(dst, e.Word)
	case KindAnd, KindOr, KindNot:
		dst = e.Left.Keywords(dst)
		return e.Right.Keywords(dst)
	}
	return dst
}

// Matches evaluates the expression against one file entry. Keyword leaves
// match case-insensitive substrings of the filename, which is how
// historical servers implemented keyword search after tokenisation.
func (e *SearchExpr) Matches(f *FileEntry) bool {
	switch e.Kind {
	case KindKeyword:
		name, _ := f.Name()
		return containsFold(name, e.Word)
	case KindMetaStr:
		if e.Meta == MetaNameType {
			ft, _ := f.Type()
			return strings.EqualFold(ft, e.Word)
		}
		return false
	case KindMetaNum:
		var field uint32
		switch e.Meta {
		case MetaNameSize:
			field, _ = f.Size()
		case MetaNameAvail:
			for _, t := range f.Tags {
				if t.ID() == FTSources && t.Type == TagUint32 {
					field = t.Num
				}
			}
		default:
			return false
		}
		if e.NumOp == NumericMax {
			return field <= e.Value
		}
		return field >= e.Value
	case KindAnd:
		return e.Left.Matches(f) && e.Right.Matches(f)
	case KindOr:
		return e.Left.Matches(f) || e.Right.Matches(f)
	case KindNot:
		return e.Left.Matches(f) && !e.Right.Matches(f)
	}
	return false
}

// containsFold reports whether s contains substr under ASCII case folding.
func containsFold(s, substr string) bool {
	if len(substr) == 0 {
		return true
	}
	if len(s) < len(substr) {
		return false
	}
	lower := func(c byte) byte {
		if 'A' <= c && c <= 'Z' {
			return c + 'a' - 'A'
		}
		return c
	}
	for i := 0; i+len(substr) <= len(s); i++ {
		ok := true
		for j := 0; j < len(substr); j++ {
			if lower(s[i+j]) != lower(substr[j]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// appendExpr encodes the tree in wire prefix order.
func appendExpr(b []byte, e *SearchExpr) []byte {
	switch e.Kind {
	case KindKeyword:
		b = append(b, exprKeyword)
		return appendStr(b, e.Word)
	case KindMetaStr:
		b = append(b, exprMetaStr)
		b = appendStr(b, e.Word)
		b = appendU16(b, 1)
		return append(b, e.Meta)
	case KindMetaNum:
		b = append(b, exprMetaNum)
		b = appendU32(b, e.Value)
		b = append(b, e.NumOp)
		b = appendU16(b, 1)
		return append(b, e.Meta)
	case KindAnd:
		b = append(b, exprOperator, operatorAnd)
	case KindOr:
		b = append(b, exprOperator, operatorOr)
	case KindNot:
		b = append(b, exprOperator, operatorNot)
	default:
		panic(fmt.Sprintf("ed2k: cannot encode expression kind %d", e.Kind))
	}
	b = appendExpr(b, e.Left)
	return appendExpr(b, e.Right)
}

// decodeSearchReq decodes a search tree in a fixed number of allocations:
// a counting walk sizes one node slab, the decode fills it, and the words
// are then copied out of the payload into one string.
func decodeSearchReq(r *buffer) (Message, error) {
	x := exprSlabs{nodes: make([]SearchExpr, countExpr(r.b[r.off:]))}
	depth, n := 0, 0
	expr, err := readExpr(r, &depth, &n, &x)
	if err != nil {
		return nil, err
	}
	var words strings.Builder
	words.Grow(x.words)
	setWords(expr, r.b, &words)
	return &SearchReq{Expr: expr}, nil
}

// exprSlabs is the storage one search tree is decoded into: nodes from
// one slab in prefix order, and the word bytes the decode has seen.
type exprSlabs struct {
	nodes []SearchExpr
	words int
}

func (x *exprSlabs) node() *SearchExpr {
	if len(x.nodes) == 0 {
		return new(SearchExpr)
	}
	e := &x.nodes[0]
	x.nodes = x.nodes[1:]
	return e
}

// countExpr walks the prefix-encoded tree at the head of b without
// decoding it and counts its nodes, at most MaxExprNodes. Like
// countEntries it only counts and stops at the first thing the decode
// would reject.
func countExpr(b []byte) (nodes int) {
	off := 0
	// skipStr steps over a length-prefixed string, reporting false where
	// the decode would fail.
	skipStr := func() bool {
		if len(b)-off < 2 {
			return false
		}
		n := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2 + n
		return n <= MaxStringLen && off <= len(b)
	}
	for pending := 1; pending > 0 && nodes < MaxExprNodes && off < len(b); pending-- {
		nodes++
		kind := b[off]
		off++
		switch kind {
		case exprOperator:
			off++
			pending += 2
		case exprKeyword:
			if !skipStr() {
				return nodes
			}
		case exprMetaStr:
			if !skipStr() || !skipStr() {
				return nodes
			}
		case exprMetaNum:
			off += 5
			if off > len(b) || !skipStr() {
				return nodes
			}
		default:
			return nodes
		}
	}
	return nodes
}

// setWords gives each word-carrying node its word as a substring of the
// one string words builds, copying it from the payload field whose offset
// the node's Value parks.
func setWords(e *SearchExpr, payload []byte, words *strings.Builder) {
	if e.Kind == KindKeyword || e.Kind == KindMetaStr {
		start := words.Len()
		words.Write(strAt(payload, e.Value))
		e.Word, e.Value = words.String()[start:], 0
	}
	if e.Left != nil {
		setWords(e.Left, payload, words)
		setWords(e.Right, payload, words)
	}
}

// readExpr decodes one expression tree with node and depth limits. A
// word stays in the payload until setWords copies it out: the node's
// Value parks its field's offset.
func readExpr(r *buffer, depth, nodes *int, x *exprSlabs) (*SearchExpr, error) {
	*nodes++
	if *nodes > MaxExprNodes {
		return nil, semanticf("search expression exceeds %d nodes", MaxExprNodes)
	}
	if *depth > MaxExprDepth {
		return nil, semanticf("search expression deeper than %d", MaxExprDepth)
	}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch kind {
	case exprOperator:
		op, err := r.u8()
		if err != nil {
			return nil, err
		}
		var k ExprKind
		switch op {
		case operatorAnd:
			k = KindAnd
		case operatorOr:
			k = KindOr
		case operatorNot:
			k = KindNot
		default:
			return nil, semanticf("unknown search operator 0x%02X", op)
		}
		// The node is taken before its subtrees so the slab holds the
		// tree in prefix order.
		e := x.node()
		*depth++
		l, err := readExpr(r, depth, nodes, x)
		if err != nil {
			return nil, err
		}
		rhs, err := readExpr(r, depth, nodes, x)
		if err != nil {
			return nil, err
		}
		*depth--
		*e = SearchExpr{Kind: k, Left: l, Right: rhs}
		return e, nil
	case exprKeyword:
		off, n, err := r.strField()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, semanticf("empty search keyword")
		}
		x.words += n
		e := x.node()
		*e = SearchExpr{Kind: KindKeyword, Value: off}
		return e, nil
	case exprMetaStr:
		off, n, err := r.strField()
		if err != nil {
			return nil, err
		}
		meta, err := r.strBytes()
		if err != nil {
			return nil, err
		}
		if len(meta) != 1 {
			return nil, semanticf("string meta name of length %d", len(meta))
		}
		x.words += n
		e := x.node()
		*e = SearchExpr{Kind: KindMetaStr, Value: off, Meta: meta[0]}
		return e, nil
	case exprMetaNum:
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		op, err := r.u8()
		if err != nil {
			return nil, err
		}
		if op != NumericMin && op != NumericMax {
			return nil, semanticf("unknown numeric operator 0x%02X", op)
		}
		meta, err := r.strBytes()
		if err != nil {
			return nil, err
		}
		if len(meta) != 1 {
			return nil, semanticf("numeric meta name of length %d", len(meta))
		}
		e := x.node()
		*e = SearchExpr{Kind: KindMetaNum, Value: v, NumOp: op, Meta: meta[0]}
		return e, nil
	}
	return nil, semanticf("unknown search node kind 0x%02X", kind)
}
