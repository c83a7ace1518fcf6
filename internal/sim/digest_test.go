package sim

import (
	"fmt"
	"testing"

	"hybridtree/internal/pagefile"
)

// TestDigestPinned pins every index's digest at three seeds, one per fault
// profile. The digest folds every query answer (box rids, range and k-NN
// distance bits) and every mutation outcome, so a change to any search
// path, comparator or fold that moves one answer moves a digest here.
func TestDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		faults string
		want   map[string]uint64
	}{
		{1, "heavy", map[string]uint64{"hybrid": 0x51f05f2512c2a342, "sr": 0x0df2d82f9332679b,
			"hb": 0xca98cb2f91ac488c, "kdb": 0xb9268c158ff8d8c0, "scan": 0x5fd809209e59bb29}},
		{2, "light", map[string]uint64{"hybrid": 0xc69ff3e4d41e71e0, "sr": 0xa0f55b29df4c6688,
			"hb": 0x0ab798b34b2b5dd8, "kdb": 0xc9e7f3a264e0104f, "scan": 0x709970ad7340f2b8}},
		{3, "off", map[string]uint64{"hybrid": 0xa6048f3ea1cb679c, "sr": 0x6a0c381e55770698,
			"hb": 0x22ad3ea1b735a8b7, "kdb": 0x8d309a44eae639c5, "scan": 0x95e5ebbfd31cebac}},
	} {
		t.Run(fmt.Sprintf("seed%d_%s", tc.seed, tc.faults), func(t *testing.T) {
			rep, err := Run(Config{
				Trace:   TraceConfig{Seed: tc.seed, Ops: 2000},
				Faults:  pagefile.ChaosProfiles[tc.faults],
				Indexes: []string{"hybrid", "sr", "hb", "kdb", "scan"},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, ir := range rep.Indexes {
				if ir.Digest != tc.want[ir.Name] {
					t.Errorf("%s digest %016x, want %016x", ir.Name, ir.Digest, tc.want[ir.Name])
				}
			}
		})
	}
}
