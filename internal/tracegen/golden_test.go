package tracegen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"nopower/internal/trace"
)

// goldenMixDigests pins the exact output of BuildMix: a SHA-256 over the set
// name, every trace's name and class, and the Float64bits of every sample.
// The digests were recorded from the serial generator, so a parallel
// generator that is deterministic but draws or shapes differently fails
// here even though it would pass a run-against-itself comparison. Keyed by
// "<mix>@<ticks>"; 100 and 1100 ticks are not multiples of 64 (the burst
// bitset word) and 1100 wraps the 1000-tick synthetic day.
var goldenMixDigests = map[string]string{
	"180@100":         "83ba5278cbd74e01140df38eca27138bb5c563929676ff5dacfc414bd4768113",
	"180@1100":        "65e169ae41c02e264ad7b78b7fd89c88819b60467b8529542e0ae146b5096984",
	"60L@100":         "9a59f8743fad677f2d8caa8265ef5bd86c7220afabaf55ff36cc5c3e979f7e49",
	"60L@1100":        "7b2b58ecc319dd3832f7f45edcb77b402dc7f35e198f739e5c9c734d815b470f",
	"60M@100":         "7651efd355df8a140553519e197af57c36eff14fa5d81f59c2c7f2ccb1ebe635",
	"60M@1100":        "d4d851247d9abad74a8c9aa83769ee986c6a44999dbddff59d659a9435124ac3",
	"60H@100":         "5af6785ac6172f1999c3ff896fdd5e5d759dc5942c7d8fa26037a721e5356f9d",
	"60H@1100":        "1467cf7aea233073202f56ba20b52042c560bfffc20bfa6f3ee1e7d528f90ae4",
	"60HH@100":        "1eaf11a982542865b379a0b60d0c20c0012d410104fade5fe815864f8d81de76",
	"60HH@1100":       "0849f2fc480695b832e3521ae7671f762bea556b48c8b7a25261d1f7c683d67e",
	"60HHH@100":       "8956ea563ac61fda4ab2ee1a33261e44955801d10ea5a5be388957bbf6562b98",
	"60HHH@1100":      "5f87fa88f2a5972ea3387acf60f411bee60aceb3a63d0007ee00a65c50e20e2b",
	"aiburst@100":     "b2e6f09753da1b4f1ae1d13a869efe0be3e87e33202590b77293db495f076967",
	"aiburst@1100":    "cfe28d31c6935d0fdbba7d224098e308a4151be27d90c1bf260c6656a79d8d5d",
	"hetero@100":      "9649feadde128cd31c5e5d096996f2b5bf06856d7514ae31ac47584637a167f4",
	"hetero@1100":     "b90ee60358bff7579f31f3924d24078f5b9d3d8216548f3bb5ebc832a33024c5",
	"scale2000@100":   "69c1415b450b7aa011f533624491b8e48507bcc296624e6081b004ac5051598f",
	"scale2000@1100":  "c3a921016764dc6905bb67c13b6c7effeedc17426c0912a830999d3854777818",
	"hetero1000@100":  "6a6b2c5da77b51ed2a11c702f06879ffa5cecfc4df017d64515d44ccae0ec397",
	"hetero1000@1100": "bc318c19490ef2d61ed92ddb3c8a0ad28660d9e93a9597ee69dad500f9ce02ea",
	"aiburst500@100":  "54673621b7177d2dc10dc37bab504d420936b2e50c11dcea4310a291fbb85131",
	"aiburst500@1100": "07fe0270c8ea20e62857f7641a4f9e55de2f4c34f647f3676f68f14daf66da4c",
	"hetero2000@100":  "919744f9f9ab52e67f1ade360ce8a5206ed71afa3d6e212b10cc6c86ae0ff9e1",
	"hetero2000@1100": "f4f8dd9169e9ef91d6e973c18e40fcf5e0c272ec402b27e9cbc0c1b9075ffc46",
}

// goldenTicks are the two trace lengths every golden mix is built at.
var goldenTicks = []int{100, 1100}

// goldenMixes covers every mix family: the six paper mixes, the AI-burst and
// heterogeneous canonical mixes, and sized variants large enough to span
// several shaping blocks per tier.
var goldenMixes = []Mix{Mix180, Mix60L, Mix60M, Mix60H, Mix60HH, Mix60HHH,
	MixAIBurst, MixHetero, ScaleMix(2000), HeteroMix(1000), AIBurstMix(500), HeteroMix(2000)}

// setDigest hashes a trace set's names, classes and sample bits.
func setDigest(set *trace.Set) string {
	h := sha256.New()
	var word [8]byte
	fmt.Fprintf(h, "%s\x00%d\x00", set.Name, len(set.Traces))
	for _, tr := range set.Traces {
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00", tr.Name, tr.Class, len(tr.Demand))
		for _, d := range tr.Demand {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(d))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenMixDigests rebuilds every golden mix at GOMAXPROCS 1, 2 and 4 —
// the inline path and the shaping pool at two widths — and requires the
// recorded digest each time, whatever the host's CPU count.
func TestGoldenMixDigests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, mix := range goldenMixes {
			for _, ticks := range goldenTicks {
				key := fmt.Sprintf("%s@%d", mix, ticks)
				set, err := BuildMix(mix, ticks, 11)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := setDigest(set); got != goldenMixDigests[key] {
					t.Errorf("GOMAXPROCS=%d %s: digest %s, want %s", procs, key, got, goldenMixDigests[key])
				}
			}
		}
	}
}

// TestGoldenGeneratorDigests pins the two generators BuildMix does not
// reach with default parameters: a stacked Generate call with a short
// synthetic day spanning several shaping blocks, and GenerateMultiTier,
// which interleaves its tier noise with the shared request draws.
func TestGoldenGeneratorDigests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		gen, err := Generate(300, Params{Ticks: 700, TicksPerDay: 250, Seed: 13, Level: 0.9, Stack: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := setDigest(gen), "67d35a9beed65612af43af6b4fd3209cf0ad697b98ece20b583d796a46f3790f"; got != want {
			t.Errorf("GOMAXPROCS=%d Generate: digest %s, want %s", procs, got, want)
		}
		tiered, err := GenerateMultiTier(7, nil, Params{Ticks: 1100, TicksPerDay: 300, Seed: 5, Level: 1.1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := setDigest(tiered), "be6bd4cd4e46bd42f26f7a3c40ee1dc4ff55953b3e14f4ef501a8d852726ba2c"; got != want {
			t.Errorf("GOMAXPROCS=%d GenerateMultiTier: digest %s, want %s", procs, got, want)
		}
	}
}
