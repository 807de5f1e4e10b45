package decwi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"github.com/decwi/decwi/internal/creditrisk"
)

// goldenPath is the committed golden corpus: absolute SHA-256 digests of
// replay tuples' payloads. The bytes of a replay tuple are a public
// contract (clients replay them, the serve result cache keys on them),
// so they are pinned against fixed digests, not only one execution path
// against another. A digest may only change together with a deliberate
// stream-family change, recorded as such in CHANGES.md.
const goldenPath = "testdata/golden_digests.json"

// goldenGenerate is one generate tuple: the GenerateOptions workload
// fields plus IntraItemSubstreams, and the digest of its little-endian
// float32 device-layout payload (the decwi-gammagen / serve wire bytes).
type goldenGenerate struct {
	Name         string    `json:"name"`
	Config       int       `json:"config"`
	Scenarios    int64     `json:"scenarios"`
	Sectors      int       `json:"sectors"`
	Variance     float64   `json:"variance,omitempty"`
	Variances    []float64 `json:"variances,omitempty"`
	Seed         uint64    `json:"seed"`
	StreamOffset uint64    `json:"stream_offset,omitempty"`
	BreakID      int       `json:"break_id,omitempty"`
	Substreams   int       `json:"substreams,omitempty"`
	SHA256       string    `json:"sha256"`
}

// goldenMC is one SimulateMC run over a NewUniformPortfolio; the digest
// covers the little-endian float64 per-scenario losses.
type goldenMC struct {
	Config    int     `json:"config"`
	Sectors   int     `json:"sectors"`
	Obligors  int     `json:"obligors"`
	Variance  float64 `json:"variance"`
	PD        float64 `json:"pd"`
	Exposure  float64 `json:"exposure"`
	Scenarios int     `json:"scenarios"`
	Seed      uint64  `json:"seed"`
	SHA256    string  `json:"sha256"`
}

// name labels an MC entry by the fields that set it apart.
func (e goldenMC) name() string {
	return fmt.Sprintf("config%d/pd%g-var%g", e.Config, e.PD, e.Variance)
}

type goldenCorpus struct {
	Generate   []goldenGenerate `json:"generate"`
	SimulateMC []goldenMC       `json:"simulate_mc"`
}

func loadGolden(t *testing.T) goldenCorpus {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenCorpus
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(g.Generate) == 0 || len(g.SimulateMC) == 0 {
		t.Fatalf("%s: empty corpus", goldenPath)
	}
	return g
}

func (e goldenGenerate) options() GenerateOptions {
	return GenerateOptions{
		Scenarios: e.Scenarios, Sectors: e.Sectors,
		Variance: e.Variance, Variances: e.Variances,
		Seed: e.Seed, StreamOffset: e.StreamOffset, BreakID: e.BreakID,
	}
}

func digestFloat32(values []float32) string {
	h := sha256.New()
	var buf [4]byte
	for _, v := range values {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestFloat64(values []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests checks every golden generate tuple through each entry
// point that promises its bytes: Generate on the Fused path, Generate on
// the Hardware dataflow, GenerateParallel at one worker and at
// GOMAXPROCS workers, and the OpenCL host path (Session.EnqueueGamma)
// read back with device-level and with host-level combining. Substream
// tuples are a GenerateParallel-only stream family, so they go through
// the two parallel entries alone.
func TestGoldenDigests(t *testing.T) {
	g := loadGolden(t)
	for _, e := range g.Generate {
		t.Run(e.Name, func(t *testing.T) {
			c := ConfigID(e.Config)
			check := func(path string, values []float32) {
				t.Helper()
				if got := digestFloat32(values); got != e.SHA256 {
					t.Errorf("%s: sha256 %s, golden %s", path, got, e.SHA256)
				}
			}
			if e.Substreams == 0 {
				for _, hw := range []bool{false, true} {
					opt := e.options()
					opt.Hardware = hw
					res, err := Generate(c, opt)
					if err != nil {
						t.Fatalf("Generate(Hardware=%v): %v", hw, err)
					}
					check(fmt.Sprintf("Generate(Hardware=%v)", hw), res.Values)
				}
				sess, err := NewSession("FPGA")
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				for _, hostCombine := range []bool{false, true} {
					run, err := sess.EnqueueGamma(c, e.options(), hostCombine)
					if err != nil {
						t.Fatalf("EnqueueGamma(hostCombine=%v): %v", hostCombine, err)
					}
					check(fmt.Sprintf("Session.EnqueueGamma(hostCombine=%v)", hostCombine), run.Host)
				}
			}
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				res, err := GenerateParallel(c, ParallelOptions{
					GenerateOptions: e.options(), Workers: workers,
					IntraItemSubstreams: e.Substreams,
				})
				if err != nil {
					t.Fatalf("GenerateParallel(Workers=%d): %v", workers, err)
				}
				check(fmt.Sprintf("GenerateParallel(Workers=%d)", workers), res.Values)
			}
		})
	}
}

// TestGoldenSimulateMC pins the CreditRisk+ Monte-Carlo losses of every
// MC entry: sector variables come through gamma.Pipe, default counts
// through the squeeze-first Poisson sampler on its block-filled feed.
func TestGoldenSimulateMC(t *testing.T) {
	for _, e := range loadGolden(t).SimulateMC {
		t.Run(e.name(), func(t *testing.T) {
			k, err := ConfigID(e.Config).kernel()
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewUniformPortfolio(e.Sectors, e.Variance, e.Obligors, e.PD, e.Exposure)
			if err != nil {
				t.Fatal(err)
			}
			res, err := creditrisk.SimulateMC(p, creditrisk.MCConfig{
				Scenarios: e.Scenarios, Transform: k.Transform, MTParams: k.MTParams, Seed: e.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := digestFloat64(res.Losses); got != e.SHA256 {
				t.Fatalf("SimulateMC losses sha256 %s, golden %s", got, e.SHA256)
			}
		})
	}
}
