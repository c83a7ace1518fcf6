package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestDecodeRowMatchesPortable holds the data-page row decoder to the
// portable one-float-at-a-time loop, bit for bit, on random byte images
// seeded with the float32 values a copy could plausibly mangle: NaNs with
// payloads (quiet and signalling, both signs), ±0, subnormals and ±Inf.
// Rows of every length from 0 to 70 are read at each byte misalignment a
// page offset can give the source. decodeRowPortable is called directly, so
// it is checked on every host, whichever side decodeRow takes there.
func TestDecodeRowMatchesPortable(t *testing.T) {
	specials := []uint32{0x7fc00001, 0xffc12345, 0x7f800001, 0xff80beef, 0x80000000, 0,
		0x00000001, 0x807fffff, 0x00400000, 0x7f800000, 0xff800000, 0x7f7fffff}
	rng := rand.New(rand.NewSource(32))
	for dim := 0; dim <= 70; dim++ {
		for shift := 0; shift < 4; shift++ {
			buf := make([]byte, shift+4*dim)
			rng.Read(buf)
			img := buf[shift:]
			want := make([]float32, dim)
			for d := range want {
				bits := rng.Uint32()
				if rng.Intn(3) == 0 {
					bits = specials[rng.Intn(len(specials))]
				}
				binary.LittleEndian.PutUint32(img[4*d:], bits)
				want[d] = math.Float32frombits(bits)
			}
			portable, got := make([]float32, dim), make([]float32, dim)
			decodeRowPortable(portable, img)
			decodeRow(got, img)
			for d := range want {
				w := math.Float32bits(want[d])
				if p := math.Float32bits(portable[d]); p != w {
					t.Fatalf("dim %d shift %d: portable coordinate %d = %#08x, page holds %#08x", dim, shift, d, p, w)
				}
				if g := math.Float32bits(got[d]); g != w {
					t.Fatalf("dim %d shift %d: decodeRow coordinate %d = %#08x, page holds %#08x (host little-endian: %v)", dim, shift, d, g, w, hostLittle)
				}
			}
		}
	}
}
