package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// Every test in the package runs with released request state overwritten by
// NaN, so a vector that outlives its request — in a node, an ELS entry, a
// queued write — shows up as a failed lookup or a broken invariant, in the
// unit tests and in both storms.
func init() { poisonReleased = true }

// scanBody runs the scanner over body the way endpoint does.
func scanBody(st *reqState, body []byte) (queryRequest, error) {
	st.body = append(st.body[:0], body...)
	err := st.scan()
	return st.req, err
}

func sameVector(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstOracle holds the scanner to encoding/json on one body: the
// same accept/reject decision, and on accept the same value in every field,
// floats compared by bits. (json.Unmarshal, unlike the json.Decoder the
// endpoint used to run, already rejects bytes after the value.)
func checkAgainstOracle(t *testing.T, st *reqState, body []byte) {
	t.Helper()
	var want queryRequest
	wantErr := json.Unmarshal(body, &want)
	got, gotErr := scanBody(st, body)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: scanner error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !sameVector(got.Point, want.Point) || !sameVector(got.Lo, want.Lo) || !sameVector(got.Hi, want.Hi) ||
		got.K != want.K || math.Float64bits(got.Radius) != math.Float64bits(want.Radius) ||
		got.Metric != want.Metric || got.RID != want.RID {
		t.Fatalf("body %q:\nscanner       %+v\nencoding/json %+v", body, got, want)
	}
}

// benchBody is a benchmark-shaped request: 64-d vectors in the shortest
// float32 spelling, as benchmark/data.go and internal/loadgen write them.
func benchBody(kind string) []byte {
	rng := rand.New(rand.NewSource(64))
	vec := func() string {
		var b []byte
		for i := 0; i < 64; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(float32(rng.Float64()*rng.Float64())), 'g', -1, 32)
		}
		return "[" + string(b) + "]"
	}
	switch kind {
	case "knn":
		return []byte(`{"point":` + vec() + `,"k":10,"metric":"L1"}`)
	case "range":
		return []byte(`{"point":` + vec() + `,"radius":0.35,"metric":"L1"}`)
	case "insert":
		return []byte(`{"point":` + vec() + `,"rid":40001}`)
	default: // the point64-serve body
		v := vec()
		return []byte(`{"lo":` + v + `,"hi":` + v + `}`)
	}
}

func FuzzScanRequest(f *testing.F) {
	for _, tc := range rejectionCases {
		f.Add([]byte(tc.body))
	}
	for _, kind := range []string{"knn", "range", "insert", "box"} {
		f.Add(benchBody(kind))
	}
	for _, s := range []string{
		``, ` `, `null`, ` null `, `nul`, `{}`, `[]`, `7`, `"point"`, `{"k":3}x`, `{"k":3},`,
		`{"POINT":[1,2],"point":null}`,
		`{"lo":[1,2,3],"lo":[null]}`, `{"lo":[1,2,3],"lo":[],"lo":[null,null]}`, `{"lo":[1,2],"lo":null,"lo":[null]}`,
		`{"hi":[1,2,3],"HI":[null,null,null,null,5]}`,
		`{"k":1,"k":2,"K":null}`, `{"k":3.0}`, `{"k":3e0}`, `{"k":-0}`, `{"k":9223372036854775808}`, `{"k":"3"}`,
		`{"rid":-0}`, `{"rid":18446744073709551615}`, `{"rid":18446744073709551616}`, `{"rid":1.5}`,
		`{"radius":1e999}`, `{"radius":-0}`, `{"radius":0.1}`, `{"radius":123456789012345678901234567890}`, `{"radius":null}`,
		`{"point":[1e39]}`, `{"point":[-0]}`, `{"point":[-0.0e5]}`, `{"point":[3.4028235e38,3.4028236e38,1e-45,1e-46,7e-46]}`,
		`{"point":[0.1,-1.5E+3,1e-2,0.000001,123456789012345678,1.00000005960464477539062500001]}`,
		`{"point":[01]}`, `{"point":[1.]}`, `{"point":[.5]}`, `{"point":[-]}`, `{"point":[1e]}`, `{"point":[1e+]}`, `{"point":[+1]}`,
		`{"point":[1,]}`, `{"point":[,1]}`, `{"point":[1 2]}`, `{"point":[true]}`, `{"point":["1"]}`, `{"point":[[1]]}`, `{"point":1}`,
		`{"point":[1],}`, `{,}`, `{"point"}`, `{"point":}`, `{point:[1]}`, `{"point":[1]`, "{\"point\"\t:\r\n[ 1 , 2 ] }\n",
		`{"po\u0069nt":[1],"m\u0065tric":"L\u0031"}`, `{"metric":"Lp:\u0033"}`, `{"metric":"a\"b\\c\/d"}`, `{"metric":"tab\tok"}`,
		"{\"metric\":\"raw\ttab\"}", `{"metric":"\x"}`, `{"metric":"\u12"}`, `{"metric":"\ud800"}`, `{"metric":"é"}`, "{\"metric\":\"\xff\"}",
		`{"metric":null}`, `{"metric":5}`, `{"metric":"L1","metric":"L2"}`,
		`{"\u212a":4}`, `{"K":4}`, `{"radiuſ":2}`, `{"RADIUS":2}`, `{"kk":1}`, `{"":1}`,
		`{"extra":{"a":[1,{"b":null}],"c":"d\"e","f":true,"g":false},"k":2}`, `{"extra":{"a":[1,}}`, `{"extra":tru}`, `{"extra":truex}`,
		`{"extra":{"k":1}}`, `{"extra":[{"point":[9]}],"point":[1]}`, `{"extra":{1:2}}`, `{"extra":{"a" 1}}`, `{"extra":[1 2]}`,
	} {
		f.Add([]byte(s))
	}
	st := new(reqState)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, st, body)
	})
}

// TestScanDepthLimit: unknown values nest as deep as encoding/json lets
// them and no deeper.
func TestScanDepthLimit(t *testing.T) {
	st := new(reqState)
	for _, depth := range []int{maxDepth - 2, maxDepth - 1, maxDepth} {
		for _, open := range []string{"[", `{"a":`} {
			closer := map[string]string{"[": "]", `{"a":`: "}"}[open]
			body := `{"x":` + strings.Repeat(open, depth) + "1" + strings.Repeat(closer, depth) + `,"k":1}`
			checkAgainstOracle(t, st, []byte(body))
			_, err := scanBody(st, []byte(body))
			if wantOK := depth < maxDepth; (err == nil) != wantOK {
				t.Errorf("%d levels of %q under the request object: err = %v, want accepted = %v", depth, open, err, wantOK)
			}
		}
	}
}

// TestScanFloat32MatchesStrconv: every vector element the scanner converts
// is bit-equal to strconv.ParseFloat(s, 32) — over random float32 bit
// patterns spelled every way strconv spells a float (shortest and fixed
// precision, as a float32 and as the float64 it widens to, which is where
// long digit strings and double-rounding midpoints come from), and over the
// hand-picked boundary cases.
func TestScanFloat32MatchesStrconv(t *testing.T) {
	checker := func(t *testing.T) func(s []byte) {
		st := new(reqState)
		return func(s []byte) {
			t.Helper()
			st.body, st.i = s, 0
			got, gotErr := st.float32()
			want, wantErr := strconv.ParseFloat(string(s), 32)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: scanner error %v, strconv error %v", s, gotErr, wantErr)
			}
			if wantErr == nil && (math.Float32bits(got) != math.Float32bits(float32(want)) || st.i != len(s)) {
				t.Fatalf("%s: scanner %x (consumed %d of %d bytes), strconv %x",
					s, math.Float32bits(got), st.i, len(s), math.Float32bits(float32(want)))
			}
		}
	}

	// 10^7 patterns in all, in shards that run side by side (under -race
	// one shard would take a minute).
	const shards = 4
	n := 10_000_000 / shards
	if testing.Short() {
		n = 200_000 / shards
	}
	for shard := 0; shard < shards; shard++ {
		t.Run(fmt.Sprintf("random/%d", shard), func(t *testing.T) {
			t.Parallel()
			check := checker(t)
			rng := rand.New(rand.NewSource(int64(32 + shard)))
			var buf []byte
			for i := 0; i < n; i++ {
				bits := rng.Uint32()
				if bits&0x7f800000 == 0x7f800000 {
					continue // Inf and NaN have no JSON spelling
				}
				f := float64(math.Float32frombits(bits))
				switch i % 8 {
				case 0, 1, 2: // what clients send
					buf = strconv.AppendFloat(buf[:0], f, 'g', -1, 32)
				case 3:
					buf = strconv.AppendFloat(buf[:0], f, 'e', -1, 32)
				case 4:
					buf = strconv.AppendFloat(buf[:0], f, 'g', -1, 64)
				case 5:
					buf = strconv.AppendFloat(buf[:0], f, 'f', -1, 32)
				case 6: // 1 to 17 digits: truncated spellings land near midpoints
					buf = strconv.AppendFloat(buf[:0], f, 'e', i/8%17, 64)
				case 7:
					// The rounding midpoint above f: spelled exactly, nudged
					// upwards, and cut to 15 digits — about one cut in ten is
					// a different decimal that still rounds to the midpoint as
					// a float64, the one case where narrowing would be wrong.
					next := float64(math.Float32frombits(bits + 1))
					if math.IsInf(next, 0) {
						continue
					}
					mid := (f + next) / 2
					buf = strconv.AppendFloat(buf[:0], mid, 'e', -1, 64)
					check(buf)
					mant, exp, _ := bytes.Cut(buf, []byte("e"))
					for _, tail := range []string{"1", "0000000000000000001"} {
						check([]byte(string(mant) + tail + "e" + string(exp)))
					}
					buf = strconv.AppendFloat(buf[:0], mid, 'e', 14, 64)
				}
				check(buf)
			}
		})
	}

	check := checker(t)
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0e10", "0e999", "1", "-1", "1e22", "1e23", "1e-22", "1e-23",
		"123456789012345", "1234567890123456", "999999999999999e22", "0.000000000000000000001e22",
		// Midpoints between adjacent float32s (24-bit odd numerators), exact
		// and nudged: 1+2^-24, 16777217, 0.5+2^-25, near the top of the range.
		"1.000000059604644775390625", "1.00000005960464477539062", "1.0000000596046447753906251",
		"16777217", "16777217.0", "16777217.000000001", "16777216.999999999", "33554434", "33554438", "8388608.5", "8388609.5",
		"0.500000029802322387695312", "0.5000000298023223876953125", "0.50000002980232238769531250000001",
		"3.4028235e38", "3.40282356e38", "3.4028235677973366e38", "3.4028235677973367e38", "3.4028236e38", "1e39",
		// Subnormal float32s and the underflow edge.
		"1.1754944e-38", "1.1754943e-38", "1.1754942e-38", "5.877472e-39", "1e-40", "1.4e-45", "1e-45", "7.006492321624085e-46",
		"7.0064923216240853546186479164495806564013097093825788587853914359e-46", "7.1e-46", "7e-46", "1e-46", "1e-400",
		"0.000000000000000000000000000000000000011754944", "0.0000000000000000000000000000000000000000000014",
	} {
		check([]byte(s))
		check([]byte("-" + s))
	}
}

func point64Request(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/box", bytes.NewReader(body))
}

// discardResponse is the cheapest http.ResponseWriter there is, so that
// what the handler benchmark and the allocation ceiling measure is the
// handler.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestHandlerAllocCeiling pins what a point query allocates between
// ServeHTTP's entry and return: the scanner nothing at all, the whole
// handler a fixed handful (the response encoder's, the lifecycle context's
// and the result slices'), independent of the 128 floats in the body. A
// reflective decode of this body alone was 27 allocations.
func TestHandlerAllocCeiling(t *testing.T) {
	body := benchBody("box")
	st := new(reqState)
	if _, err := scanBody(st, body); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		st.body = body
		if err := st.scan(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("scanner: %v allocs/op on a 64-d point body, want 0", n)
	}

	s, _ := newTestServer(t, 64, 300, nil)
	h := s.Handler()
	rd := bytes.NewReader(body)
	req := point64Request(body)
	w := &discardResponse{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		req.Body = readCloser{rd}
		h.ServeHTTP(w, req)
	}
	serve()
	if got := w.h.Get(HeaderOutcome); got != "ok" {
		t.Fatalf("outcome %q, want ok", got)
	}
	const ceiling = 30
	if n := testing.AllocsPerRun(200, serve); n > ceiling {
		t.Errorf("Handler().ServeHTTP: %v allocs/op on a 64-d point body, ceiling %d", n, ceiling)
	} else {
		t.Logf("Handler().ServeHTTP: %v allocs/op (ceiling %d)", n, ceiling)
	}
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// BenchmarkScanRequestPoint64 is the wire decode of one point64-serve
// request: a 1.7 KB body, 128 floats. It must not allocate: internal/perf's
// AllocRule holds it to 0 allocs/op in CI, TestHandlerAllocCeiling under
// plain `go test`.
func BenchmarkScanRequestPoint64(b *testing.B) {
	body := benchBody("box")
	st := new(reqState)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.body = body
		if err := st.scan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandlerPoint64 is the same request through Handler().ServeHTTP —
// everything the server adds to the core's three node reads except the
// socket.
func BenchmarkHandlerPoint64(b *testing.B) {
	body := benchBody("box")
	s, _ := newTestServer(b, 64, 2000, nil)
	h := s.Handler()
	rd := bytes.NewReader(body)
	req := point64Request(body)
	w := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		req.Body = readCloser{rd}
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if got := w.h.Get(HeaderOutcome); got != "ok" {
		b.Fatalf("outcome %q, want ok", got)
	}
}
