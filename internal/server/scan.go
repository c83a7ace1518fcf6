package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// reqState is one /v1 request's decode state: the raw body and the three
// vector buffers the scanner appends into. It is pooled, so a steady stream
// of requests decodes without allocating.
//
// Lifetime rule: req.Point, req.Lo and req.Hi alias the buffers and are
// valid only until the handler returns. Everything below the handler copies
// what it keeps (node.appendPoint, the ELS enlargements) and every write
// blocks until its group has committed, so nothing outlives the request —
// which the tests enforce rather than trust: with poisonReleased set,
// release overwrites the buffers with NaN.
type reqState struct {
	body []byte
	vec  [3][]float32 // point, lo, hi buffers; len = every index written this request
	out  [3][]float32 // the vectors as last assigned: prefixes of vec, or nil
	req  queryRequest
	i    int    // scan offset into body
	num  number // the number token scanned last
}

// maxPooledBody bounds the body buffer a pooled reqState may keep, so one
// megabyte-sized request does not pin a megabyte per pool entry.
const maxPooledBody = 64 << 10

// poisonReleased makes release overwrite the vector buffers with NaN. Only
// the package's tests set it (in an init), before any request is served.
var poisonReleased bool

var statePool = sync.Pool{New: func() any { return new(reqState) }}

func (st *reqState) release() {
	if poisonReleased {
		nan := float32(math.NaN())
		for _, v := range st.vec {
			v = v[:cap(v)]
			for i := range v {
				v[i] = nan
			}
		}
	}
	if cap(st.body) > maxPooledBody {
		return
	}
	statePool.Put(st)
}

// readBody reads r to EOF into the state's buffer. hint is the declared
// Content-Length (≤ 0 when unknown), believed only up to limit, the body
// cap — which r itself enforces.
func (st *reqState) readBody(r io.Reader, hint, limit int64) error {
	b := st.body[:0]
	if hint <= limit && hint >= int64(cap(b)) {
		// One byte more than the body, so that a reader which reports EOF
		// on its own (not with the last bytes) does not force a second grow.
		b = make([]byte, 0, hint+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			st.body = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// Request fields, in queryRequest order.
const (
	fNone = iota
	fPoint
	fLo
	fHi
	fK
	fRadius
	fMetric
	fRID
)

var fieldNames = [...]string{fPoint: "point", fLo: "lo", fHi: "hi", fK: "k", fRadius: "radius", fMetric: "metric", fRID: "rid"}

// maxDepth is encoding/json's nesting limit; the request object is level 1.
const maxDepth = 10000

var (
	errSyntax   = errors.New("invalid JSON")
	errTrailing = errors.New("invalid JSON: data after the request object")
	errDepth    = errors.New("invalid JSON: exceeded max depth")
)

func typeError(field int, want string) error {
	return fmt.Errorf("field %q: want %s", fieldNames[field], want)
}

// scan parses st.body into st.req in one pass. It accepts exactly the
// inputs json.Unmarshal accepts into a queryRequest and produces the same
// field values, float32s bit for bit (FuzzScanRequest holds it to that):
// the body is one JSON object or null between optional whitespace and
// nothing else; keys match field names case-insensitively the way
// encoding/json folds them; unknown keys may hold any valid JSON value and
// are skipped; null leaves a scalar as it was and empties a vector; a
// repeated key overwrites; numbers must fit their field (float32 range for
// vector elements, integers for k and rid, float64 range for radius).
// Strings that contain a backslash or a non-ASCII byte — never the case for
// a well-behaved client — are handed to encoding/json one token at a time.
func (st *reqState) scan() error {
	st.i = 0
	st.req = queryRequest{}
	for f := range st.vec {
		st.vec[f], st.out[f] = st.vec[f][:0], nil
	}
	st.skipSpace()
	if st.i == len(st.body) {
		return io.EOF
	}
	var err error
	if st.body[st.i] == 'n' {
		err = st.literal("null")
	} else {
		err = st.object()
	}
	if err != nil {
		return err
	}
	if st.skipSpace(); st.i != len(st.body) {
		return errTrailing
	}
	st.req.Point, st.req.Lo, st.req.Hi = st.out[0], st.out[1], st.out[2]
	return nil
}

func (st *reqState) skipSpace() {
	for st.i < len(st.body) {
		switch st.body[st.i] {
		case ' ', '\t', '\r', '\n':
			st.i++
		default:
			return
		}
	}
}

// next skips whitespace and returns the byte at the cursor without
// consuming it, or an error at end of input.
func (st *reqState) next() (byte, error) {
	st.skipSpace()
	if st.i == len(st.body) {
		return 0, io.ErrUnexpectedEOF
	}
	return st.body[st.i], nil
}

func (st *reqState) literal(lit string) error {
	rest := st.body[st.i:]
	if len(rest) < len(lit) {
		if lit[:len(rest)] == string(rest) {
			return io.ErrUnexpectedEOF
		}
		return errSyntax
	}
	if string(rest[:len(lit)]) != lit {
		return errSyntax
	}
	st.i += len(lit)
	return nil
}

// object parses the request object at the cursor.
func (st *reqState) object() error {
	if st.body[st.i] != '{' {
		return errSyntax
	}
	st.i++
	c, err := st.next()
	if err != nil {
		return err
	}
	if c == '}' {
		st.i++
		return nil
	}
	for {
		if c != '"' {
			return errSyntax
		}
		key, plain, err := st.str()
		if err != nil {
			return err
		}
		field, err := fieldOf(key, plain)
		if err != nil {
			return err
		}
		if c, err = st.next(); err != nil {
			return err
		}
		if c != ':' {
			return errSyntax
		}
		st.i++
		if _, err = st.next(); err != nil {
			return err
		}
		if err = st.value(field); err != nil {
			return err
		}
		if c, err = st.next(); err != nil {
			return err
		}
		st.i++
		if c == '}' {
			return nil
		}
		if c != ',' {
			return errSyntax
		}
		if c, err = st.next(); err != nil {
			return err
		}
	}
}

// str scans the string token at the cursor (which is on the opening quote)
// and returns it with its quotes. plain reports that the token holds neither
// an escape nor a non-ASCII byte, so the bytes between the quotes are the
// string. A token that is not plain has been checked by json.Valid.
func (st *reqState) str() (tok []byte, plain bool, err error) {
	start := st.i
	plain = true
	for i := start + 1; i < len(st.body); i++ {
		switch c := st.body[i]; {
		case c == '"':
			st.i = i + 1
			tok = st.body[start:st.i]
			if !plain && !json.Valid(tok) {
				return nil, false, errSyntax
			}
			return tok, plain, nil
		case c == '\\':
			plain = false
			i++ // whatever it escapes, it is not the closing quote
		case c < ' ':
			return nil, false, errSyntax
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false, io.ErrUnexpectedEOF
}

// fieldOf maps a key token to its request field, or fNone.
func fieldOf(tok []byte, plain bool) (int, error) {
	if plain {
		key := tok[1 : len(tok)-1]
		for f := fPoint; f <= fRID; f++ {
			if asciiEqualFold(key, fieldNames[f]) {
				return f, nil
			}
		}
		return fNone, nil
	}
	// encoding/json unescapes the key, replaces invalid UTF-8, and folds
	// each rune to the least member of its SimpleFold orbit (so "K",
	// the Kelvin sign, names field k): strings.EqualFold is that relation.
	var key string
	if err := json.Unmarshal(tok, &key); err != nil {
		return fNone, err
	}
	for f := fPoint; f <= fRID; f++ {
		if strings.EqualFold(key, fieldNames[f]) {
			return f, nil
		}
	}
	return fNone, nil
}

// asciiEqualFold reports whether key, known to be ASCII, equals the
// lower-case name under ASCII case folding.
func asciiEqualFold(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// value parses the value at the cursor into field (fNone: validate and
// skip).
func (st *reqState) value(field int) error {
	c := st.body[st.i]
	if field == fNone {
		return st.skip(c, 1)
	}
	if c == 'n' {
		if err := st.literal("null"); err != nil {
			return err
		}
		switch field {
		case fPoint, fLo, fHi:
			// A null vector is an empty one; its buffer forgets.
			st.vec[field-fPoint], st.out[field-fPoint] = st.vec[field-fPoint][:0], nil
		}
		return nil
	}
	switch field {
	case fPoint, fLo, fHi:
		if c != '[' {
			return typeError(field, "an array of numbers")
		}
		return st.array(field)
	case fMetric:
		if c != '"' {
			return typeError(field, "a string")
		}
		tok, plain, err := st.str()
		if err != nil {
			return err
		}
		if plain {
			st.req.Metric = string(tok[1 : len(tok)-1])
			return nil
		}
		return json.Unmarshal(tok, &st.req.Metric)
	}
	if c != '-' && (c < '0' || c > '9') {
		return typeError(field, "a number")
	}
	if err := st.number(); err != nil {
		return err
	}
	num := &st.num
	switch field {
	case fK:
		// ParseInt and ParseUint are stricter than the JSON grammar in
		// exactly the way the field types are: no fraction, no exponent,
		// and no sign at all for rid.
		k, err := strconv.ParseInt(string(num.tok), 10, 64)
		if err != nil || int64(int(k)) != k {
			return typeError(field, "an integer")
		}
		st.req.K = int(k)
	case fRID:
		rid, err := strconv.ParseUint(string(num.tok), 10, 64)
		if err != nil {
			return typeError(field, "a non-negative integer")
		}
		st.req.RID = rid
	case fRadius:
		d, err := strconv.ParseFloat(string(num.tok), 64)
		if err != nil {
			return typeError(field, "a number in float64 range")
		}
		st.req.Radius = d
	}
	return nil
}

// array parses a vector (the cursor is on '[') into field's buffer.
//
// encoding/json decodes a repeated key into the slice the first occurrence
// left behind, and a null element leaves the slot as it finds it — so in
// {"lo":[1,2],"lo":[null]} lo is [1], not [0]. The buffer's length is
// therefore every index written during this request (scan resets it, and so
// do null and [], which make encoding/json drop the old backing array): a
// null element below it keeps the old value, one at or above it appends 0.
func (st *reqState) array(field int) error {
	buf := st.vec[field-fPoint]
	st.i++
	c, err := st.next()
	if err != nil {
		return err
	}
	n := 0
	if c == ']' {
		st.i++
		buf = buf[:0]
	} else {
		for {
			keep := false
			var v float32
			switch {
			case c == 'n':
				if err := st.literal("null"); err != nil {
					return err
				}
				keep = true
			case c == '-' || ('0' <= c && c <= '9'):
				if v, err = st.float32(); err != nil {
					return err
				}
			default:
				return typeError(field, "an array of numbers")
			}
			switch {
			case n == len(buf):
				buf = append(buf, v)
			case !keep:
				buf[n] = v
			}
			n++
			if c, err = st.next(); err != nil {
				return err
			}
			st.i++
			if c == ']' {
				break
			}
			if c != ',' {
				return errSyntax
			}
			if c, err = st.next(); err != nil {
				return err
			}
		}
	}
	st.vec[field-fPoint], st.out[field-fPoint] = buf, buf[:n:n]
	return nil
}

// skip validates and steps over the value at the cursor, whose first byte
// is c; depth is the nesting level it sits at.
func (st *reqState) skip(c byte, depth int) error {
	switch {
	case c == '"':
		_, _, err := st.str()
		return err
	case c == '-' || ('0' <= c && c <= '9'):
		return st.number()
	case c == 't':
		return st.literal("true")
	case c == 'f':
		return st.literal("false")
	case c == 'n':
		return st.literal("null")
	case c != '{' && c != '[':
		return errSyntax
	}
	if depth == maxDepth {
		return errDepth
	}
	closer := c + 2 // '{'+2 == '}', '['+2 == ']'
	st.i++
	c, err := st.next()
	if err != nil {
		return err
	}
	if c == closer {
		st.i++
		return nil
	}
	for {
		if closer == '}' {
			if c != '"' {
				return errSyntax
			}
			if _, _, err = st.str(); err != nil {
				return err
			}
			if c, err = st.next(); err != nil {
				return err
			}
			if c != ':' {
				return errSyntax
			}
			st.i++
			if c, err = st.next(); err != nil {
				return err
			}
		}
		if err = st.skip(c, depth+1); err != nil {
			return err
		}
		if c, err = st.next(); err != nil {
			return err
		}
		st.i++
		if c == closer {
			return nil
		}
		if c != ',' {
			return errSyntax
		}
		if c, err = st.next(); err != nil {
			return err
		}
	}
}

// number is a scanned JSON number: its text, and its value as
// ±mant × 10^exp10 when digits ≤ maxExactDigits (mant is not meaningful
// beyond that).
type number struct {
	tok    []byte
	neg    bool
	mant   uint64
	digits int // significant digits: from the first non-zero digit on
	exp10  int
}

const (
	maxExactDigits = 15 // 10^15 < 2^53: mant is an exact float64
	maxExactExp    = 22 // 10^22 is the largest exact float64 power of ten
)

var pow10 = [maxExactExp + 1]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// number scans the number at the cursor into st.num, validating it against
// the JSON grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and
// converting its digits in the same pass. What follows the number is the
// caller's business.
func (st *reqState) number() error {
	num := &st.num
	*num = number{}
	b, i := st.body, st.i
	if b[i] == '-' {
		num.neg = true
		i++
	}
	switch {
	case i == len(b):
		return io.ErrUnexpectedEOF
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			num.digit(b[i])
		}
	default:
		return errSyntax
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			num.digit(b[i])
		}
		if i == start {
			return endOr(i, len(b))
		}
		num.exp10 = start - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		expNeg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			expNeg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1<<20 { // far past maxExactExp already; do not overflow
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return endOr(i, len(b))
		}
		if expNeg {
			e = -e
		}
		num.exp10 += e
	}
	num.tok = b[st.i:i]
	st.i = i
	return nil
}

// digit folds one mantissa digit into the number.
func (num *number) digit(c byte) {
	if num.digits > 0 || c != '0' {
		if num.digits < maxExactDigits {
			num.mant = num.mant*10 + uint64(c-'0')
		}
		num.digits++
	}
}

// endOr is the error for a number that stops where a digit must follow.
func endOr(i, end int) error {
	if i == end {
		return io.ErrUnexpectedEOF
	}
	return errSyntax
}

// exact returns the number as the correctly rounded float64 when that takes
// one exact operation: mant < 10^15 < 2^53 and 10^|exp10| ≤ 10^22 are both
// exactly representable, so the IEEE product or quotient is the decimal's
// value rounded once (Clinger's fast path, the one strconv takes first).
func (num *number) exact() (float64, bool) {
	if num.digits > maxExactDigits || num.exp10 < -maxExactExp || num.exp10 > maxExactExp {
		return 0, false
	}
	d := float64(int64(num.mant)) // < 10^15: the signed conversion is one instruction
	if num.exp10 < 0 {
		d /= pow10[-num.exp10]
	} else {
		d *= pow10[num.exp10]
	}
	if num.neg {
		d = -d
	}
	return d, true
}

// float32 scans a vector element and returns exactly
// strconv.ParseFloat(token, 32), which is what encoding/json stores.
//
// The short way is to round the decimal x to a float64 d = exact() and
// narrow d to float32: two roundings where ParseFloat does one. They agree
// unless d is a float32 rounding midpoint. Proof: every float32 and every
// midpoint m between two adjacent float32s is a float64 (24 or 25
// significant bits), and rounding to float64 is monotonic, so it carries x
// across no m — x < m gives d ≤ m, x > m gives d ≥ m. When d ≠ m for every
// m, x and d therefore lie strictly between the same two midpoints and
// round to the same float32. When d = m the side x was on is lost, and
// narrowing ties to even where ParseFloat rounds by x: those tokens go to
// ParseFloat. d is a midpoint exactly when the 29 bits that narrowing drops
// (52 − 23) are 1 followed by zeros. That test assumes d is a normal
// float32, which holds on this path: a non-zero d has 1 ≤ mant < 10^15 and
// |exp10| ≤ 22, so 10^-22 ≤ |d| < 10^37 — above the smallest normal
// float32 (1.2×10^-38) and below the largest (3.4×10^38), so neither a
// subnormal result nor an overflow can come out of the short way; both,
// like everything longer than 15 digits, are ParseFloat's.
func (st *reqState) float32() (float32, error) {
	if err := st.number(); err != nil {
		return 0, err
	}
	if d, ok := st.num.exact(); ok && math.Float64bits(d)&(1<<29-1) != 1<<28 {
		return float32(d), nil
	}
	f, err := strconv.ParseFloat(string(st.num.tok), 32)
	if err != nil {
		return 0, fmt.Errorf("number %s: want a number in float32 range", st.num.tok)
	}
	return float32(f), nil
}
