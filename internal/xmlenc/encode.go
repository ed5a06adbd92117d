package xmlenc

import (
	"math"
	"strconv"
)

// The encoder for the XML dialect specified in spec.md is three append
// functions: callers assemble a whole document (the dataset writer: a
// chunk) in memory as header, one line per record, footer.

// AppendHeader appends the document header (XML declaration plus the
// opening root element, meta attributes sorted by key; keys must be XML
// names) to b.
func AppendHeader(b []byte, meta map[string]string) []byte {
	b = append(b, `<?xml version="1.0" encoding="UTF-8"?>`+"\n"...)
	b = append(b, `<edtrace version="1.0"`...)
	for _, k := range sortedKeys(meta) {
		b = appendAttr(b, k, meta[k])
	}
	return append(b, '>', '\n')
}

// AppendFooter appends the closing root element to b.
func AppendFooter(b []byte) []byte {
	return append(b, "</edtrace>\n"...)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort; meta maps are tiny
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// AppendRecord appends r's single-line XML element to b and returns the
// extended buffer.
func AppendRecord(b []byte, r *Record) []byte {
	b = append(b, `<r t="`...)
	b = appendTime(b, r.T)
	b = append(b, `" c="`...)
	b = strconv.AppendUint(b, uint64(r.Client), 10)
	b = append(b, `" op="`...)
	b = appendEscaped(b, r.Op)
	b = append(b, `" dir="`...)
	b = append(b, r.Dir.String()...)
	b = append(b, '"')
	if r.Server != "" {
		b = appendAttr(b, "srv", r.Server)
	}
	if r.MinKB != 0 {
		b = append(b, ` minkb="`...)
		b = strconv.AppendUint(b, r.MinKB, 10)
		b = append(b, '"')
	}
	if r.MaxKB != 0 {
		b = append(b, ` maxkb="`...)
		b = strconv.AppendUint(b, r.MaxKB, 10)
		b = append(b, '"')
	}
	if r.Users != 0 {
		b = append(b, ` users="`...)
		b = strconv.AppendUint(b, uint64(r.Users), 10)
		b = append(b, '"')
	}
	if r.FilesCount != 0 {
		b = append(b, ` files="`...)
		b = strconv.AppendUint(b, uint64(r.FilesCount), 10)
		b = append(b, '"')
	}
	if r.Accepted != 0 {
		b = append(b, ` n="`...)
		b = strconv.AppendUint(b, uint64(r.Accepted), 10)
		b = append(b, '"')
	}
	if len(r.Files) == 0 && len(r.FileRefs) == 0 && len(r.Sources) == 0 && len(r.Keywords) == 0 {
		b = append(b, "/>\n"...)
	} else {
		b = append(b, '>')
		for i := range r.Files {
			f := &r.Files[i]
			b = append(b, `<f id="`...)
			b = strconv.AppendUint(b, uint64(f.ID), 10)
			b = append(b, `" s="`...)
			b = strconv.AppendUint(b, f.SizeKB, 10)
			b = append(b, '"')
			if f.NameHash != "" {
				b = appendAttr(b, "n", f.NameHash)
			}
			if f.TypeHash != "" {
				b = appendAttr(b, "ty", f.TypeHash)
			}
			b = append(b, "/>"...)
		}
		for _, id := range r.FileRefs {
			b = append(b, `<fr id="`...)
			b = strconv.AppendUint(b, uint64(id), 10)
			b = append(b, `"/>`...)
		}
		for _, c := range r.Sources {
			b = append(b, `<s c="`...)
			b = strconv.AppendUint(b, uint64(c), 10)
			b = append(b, `"/>`...)
		}
		for _, k := range r.Keywords {
			b = append(b, `<k h="`...)
			b = appendEscaped(b, k)
			b = append(b, `"/>`...)
		}
		b = append(b, "</r>\n"...)
	}
	return b
}

// appendTime appends t the way strconv.AppendFloat(b, t, 'f', 3, 64)
// does — the exact value of t rounded to milliseconds, ties to even —
// but from integer arithmetic wherever that is provably the same
// digits: for 'f' with a precision strconv takes its multi-precision
// decimal path, several times the cost of the rest of a short record.
//
// ms is t×1000 rounded to a float64, off the real product by at most
// half an ulp, which below 2⁴³ is 2⁻¹¹. So whenever ms lies further than
// 2⁻¹⁰ from a half-integer, the product lies between the same two
// half-integers and rounds to the same integer; a product that close to
// a tie, and everything negative, huge or not finite, is strconv's. The
// conversion keeps the multiplication from fusing with the subtraction.
func appendTime(b []byte, t float64) []byte {
	ms := float64(t * 1000)
	if math.Signbit(t) || !(ms < 1<<43) {
		return strconv.AppendFloat(b, t, 'f', 3, 64)
	}
	n := uint64(ms)
	switch frac := ms - float64(n); {
	case frac > 0.5+1.0/1024:
		n++
	case frac >= 0.5-1.0/1024:
		return strconv.AppendFloat(b, t, 'f', 3, 64)
	}
	b = strconv.AppendUint(b, n/1000, 10)
	n %= 1000
	return append(b, '.', byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
}

func appendAttr(b []byte, key, val string) []byte {
	b = append(b, ' ')
	b = append(b, key...)
	b = append(b, '=', '"')
	b = appendEscaped(b, val)
	return append(b, '"')
}

// xmlSpecial marks the bytes appendEscaped writes as entities.
var xmlSpecial = [256]bool{'&': true, '<': true, '>': true, '"': true, '\'': true}

// appendEscaped writes val with the five XML entities escaped: one table
// lookup a byte, and the runs between entities appended whole.
func appendEscaped(b []byte, val string) []byte {
	last := 0
	for i := 0; i < len(val); i++ {
		if !xmlSpecial[val[i]] {
			continue
		}
		b = append(b, val[last:i]...)
		switch val[i] {
		case '&':
			b = append(b, "&amp;"...)
		case '<':
			b = append(b, "&lt;"...)
		case '>':
			b = append(b, "&gt;"...)
		case '"':
			b = append(b, "&quot;"...)
		default:
			b = append(b, "&apos;"...)
		}
		last = i + 1
	}
	return append(b, val[last:]...)
}
