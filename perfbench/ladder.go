package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	decwi "github.com/decwi/decwi"
	"github.com/decwi/decwi/internal/core"
	"github.com/decwi/decwi/internal/creditrisk"
	"github.com/decwi/decwi/internal/perf"
	"github.com/decwi/decwi/internal/rng"
	"github.com/decwi/decwi/internal/rng/gamma"
	"github.com/decwi/decwi/internal/rng/mt"
	"github.com/decwi/decwi/internal/rng/normal"
	"github.com/decwi/decwi/internal/serve"
)

// The kernel ladder replays a workload's generate jobs down the layers,
// one rung per public entry point, each rung on one goroutine except the
// parallel one:
//
//  1. mt.Core.FillUint32, normal.FillNormal, gamma.Params.CandidateBlock
//     and Params.Finish on buffers of the engine's block size, timed
//     stage by stage;
//  2. gamma.Generator.CycleBlock;
//  3. core.Engine.RunChunk over all work-items;
//  4. decwi.Generate;
//  5. decwi.GenerateParallel at Workers 1…GOMAXPROCS;
//
// and, as a separate pair, creditrisk.SimulateMC against
// decwi.PortfolioRisk. Each rung's ns/value is printed with its residual
// against the rung above.

// blockAttempts is the engine's block size (core.blockCycles).
const blockAttempts = 256

// ladderReps repeats the whole ladder; each figure is the median.
const ladderReps = 3

// ladderValues is the per-configuration replay budget on serve-*
// workloads, whose jobs are small.
const ladderValues = 1 << 19

func kernelOf(c int) perf.KernelConfig {
	return [...]perf.KernelConfig{perf.Config1, perf.Config2, perf.Config3, perf.Config4}[c-1]
}

// stages is rung 1 of one configuration: time per stage and the exact
// counts of the replay.
type stages struct {
	mtNS, normNS, candNS, finNS float64
	words                       int64
	attempts, valid, accepted   int64
}

// replayStages runs a spec's sectors through the block pipeline by hand
// — the same calls, in the same order, CycleBlock makes — timing each
// stage. Four twisters feed it like the generator's MT0a/MT0b/MT1/MT2.
func replayStages(k perf.KernelConfig, spec *serve.JobSpec, s *stages) {
	var tw [4]*mt.Core
	for i := range tw {
		tw[i] = mt.New(k.MTParams, spec.Seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	var (
		w1      = make([]uint32, blockAttempts)
		w2      = make([]uint32, blockAttempts)
		u1      = make([]uint32, blockAttempts)
		u2      = make([]uint32, blockAttempts)
		normals = make([]float32, blockAttempts)
		nok     = make([]bool, blockAttempts)
		dv      = make([]float64, blockAttempts)
		acc     = make([]bool, blockAttempts)
		out     = make([]float32, blockAttempts)
	)
	twoWords := k.Transform.UniformsPerCandidate() == 2
	for sec := 0; sec < spec.Sectors; sec++ {
		p := gamma.MustFromVariance(spec.Variances[sec])
		for produced := int64(0); produced < spec.Scenarios; {
			t0 := time.Now()
			tw[0].FillUint32(w1)
			var w2s []uint32
			if twoWords {
				tw[1].FillUint32(w2)
				w2s = w2
			}
			t1 := time.Now()
			nv := normal.FillNormal(k.Transform, normals, nok, w1, w2s)
			t2 := time.Now()
			tw[2].FillUint32(u1[:nv])
			t3 := time.Now()
			na := p.CandidateBlock(dv, acc, normals, nok, u1[:nv])
			t4 := time.Now()
			tw[3].FillUint32(u2[:na])
			t5 := time.Now()
			j := 0
			for i, ok := range acc {
				if ok {
					out[j] = p.Finish(dv[i], rng.U32ToFloatOpen(u2[j]))
					j++
				}
			}
			t6 := time.Now()
			s.mtNS += float64(t1.Sub(t0) + t3.Sub(t2) + t5.Sub(t4))
			s.normNS += float64(t2.Sub(t1))
			s.candNS += float64(t4.Sub(t3))
			s.finNS += float64(t6.Sub(t5))
			s.words += int64(len(w1)+len(w2s)) + int64(nv+na)
			s.attempts += blockAttempts
			s.valid += int64(nv)
			s.accepted += int64(na)
			produced += int64(na)
		}
	}
}

// rungs holds one ladder pass: per configuration (index c-1), summed ns
// and values of each rung.
type rungs struct {
	st                       [4]stages
	cycleNS, cycleValues     [4]float64
	chunkNS, genNS, values   [4]float64
	parNS                    [4][]float64 // by workers-1
	allocBytes               float64
	steals, imbalance, pjobs float64
}

// ladderSpecs picks the generate jobs the ladder replays: every distinct
// one on bulk, and up to ladderValues values per configuration on
// serve-*.
func ladderSpecs(jobs []job, budget int64) []*job {
	var out []*job
	seen := map[string]bool{}
	var used [5]int64
	for i := range jobs {
		j := &jobs[i]
		k := specKey(&j.spec)
		if j.spec.Kind != serve.KindGenerate || seen[k] || used[j.spec.Config] >= budget {
			continue
		}
		seen[k] = true
		used[j.spec.Config] += j.units()
		out = append(out, j)
	}
	return out
}

func ladderPass(ctx context.Context, specs []*job, r *report) (*rungs, error) {
	procs := runtime.GOMAXPROCS(0)
	g := &rungs{}
	for c := range g.parNS {
		g.parNS[c] = make([]float64, procs)
	}
	for _, j := range specs {
		spec := &j.spec
		c := spec.Config - 1
		k := kernelOf(spec.Config)
		n := float64(j.units())

		replayStages(k, spec, &g.st[c])

		gen := gamma.NewGenerator(k.Transform, k.MTParams, gamma.MustFromVariance(spec.Variances[0]), spec.Seed)
		scratch := gamma.NewBlockScratch(blockAttempts)
		out := make([]float32, blockAttempts)
		t0 := time.Now()
		for sec := 0; sec < spec.Sectors; sec++ {
			gen.SetParams(gamma.MustFromVariance(spec.Variances[sec]))
			for produced := int64(0); produced < spec.Scenarios; {
				produced += int64(gen.CycleBlock(out, blockAttempts, scratch))
			}
		}
		g.cycleNS[c] += float64(time.Since(t0))
		g.cycleValues[c] += float64(gen.Accepted())

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		eng, err := core.NewEngine(core.Config{
			Transform: k.Transform, MTParams: k.MTParams, WorkItems: k.FPGAWorkItems,
			Scenarios: spec.Scenarios, Sectors: spec.Sectors, SectorVariances: spec.Variances, Seed: spec.Seed,
		})
		if err != nil {
			return nil, err
		}
		dst := make([]float32, j.units())
		t0 = time.Now()
		if err := eng.RunChunk(ctx, dst, 0, k.FPGAWorkItems, nil); err != nil {
			return nil, err
		}
		g.chunkNS[c] += float64(time.Since(t0))
		runtime.ReadMemStats(&m1)
		g.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		if got := digestValues(dst); got != j.want {
			r.fail("RunChunk Config%d seed %d: sha256 %.12s, Generate %.12s", spec.Config, spec.Seed, got, j.want)
		}

		t0 = time.Now()
		if _, err := decwi.Generate(decwi.ConfigID(spec.Config), generateOptions(spec)); err != nil {
			return nil, err
		}
		g.genNS[c] += float64(time.Since(t0))
		g.values[c] += n

		for w := 1; w <= procs; w++ {
			t0 = time.Now()
			pr, err := decwi.GenerateParallel(decwi.ConfigID(spec.Config), parallelOptions(spec, w))
			if err != nil {
				return nil, err
			}
			g.parNS[c][w-1] += float64(time.Since(t0))
			if w == procs {
				g.steals += float64(pr.Steals)
				g.imbalance += pr.ChunkImbalance
				g.pjobs++
			}
		}
	}
	return g, nil
}

// figures are one pass's per-layer values by metric name.
type figures map[string]float64

func (g *rungs) figures() figures {
	f := figures{}
	procs := len(g.parNS[0])
	var mtNS, mtWords [2]float64 // 0 = MT521, 1 = MT19937
	var normNS, normAtt [2]float64
	var candNS, candAtt, finNS, finVals float64
	var stageResid, chunkResid, genResid, totalVals float64
	var parW1, parWmax float64
	for c := 0; c < 4; c++ {
		s := &g.st[c]
		k := kernelOf(c + 1)
		big, icdf := 0, 0
		if k.MTParams.N == mt.MT19937Params.N {
			big = 1
		}
		if !k.Transform.Rejecting() {
			icdf = 1
		}
		mtNS[big] += s.mtNS
		mtWords[big] += float64(s.words)
		normNS[icdf] += s.normNS
		normAtt[icdf] += float64(s.attempts)
		candNS += s.candNS
		candAtt += float64(s.attempts)
		finNS += s.finNS
		finVals += float64(s.accepted)
		if icdf == 0 {
			f["normal.valid_ratio.mb"] += float64(s.valid) // normalized below
		}
		tag := fmt.Sprint(c + 1)
		f["mt.words_per_value.c"+tag] = ratio(float64(s.words), float64(s.accepted))
		f["gamma.accept_ratio.c"+tag] = ratio(float64(s.accepted), float64(s.valid))
		f["gamma.attempts_per_value.c"+tag] = ratio(float64(s.attempts), float64(s.accepted))
		f["gamma.cycleblock_ns_per_value.c"+tag] = ratio(g.cycleNS[c], g.cycleValues[c])
		f["core.runchunk_ns_per_value.c"+tag] = ratio(g.chunkNS[c], g.values[c])
		stageSum := s.mtNS + s.normNS + s.candNS + s.finNS
		stageResid += ratio(g.cycleNS[c], g.cycleValues[c])*float64(s.accepted) - stageSum
		chunkResid += g.chunkNS[c] - ratio(g.cycleNS[c], g.cycleValues[c])*g.values[c]
		genResid += g.genNS[c] - g.chunkNS[c]
		totalVals += g.values[c]
		parW1 += g.parNS[c][0]
		parWmax += g.parNS[c][procs-1]
	}
	f["normal.valid_ratio.mb"] = ratio(f["normal.valid_ratio.mb"], normAtt[0])
	f["mt.ns_per_word.mt521"] = ratio(mtNS[0], mtWords[0])
	f["mt.ns_per_word.mt19937"] = ratio(mtNS[1], mtWords[1])
	f["normal.ns_per_attempt.mb"] = ratio(normNS[0], normAtt[0])
	f["normal.ns_per_attempt.icdf"] = ratio(normNS[1], normAtt[1])
	f["gamma.candidate_ns_per_attempt"] = ratio(candNS, candAtt)
	f["gamma.finish_ns_per_value"] = ratio(finNS, finVals)
	f["gamma.stage_residual_ns_per_value"] = ratio(stageResid, finVals)
	f["core.residual_ns_per_value"] = ratio(chunkResid, totalVals)
	f["core.alloc_bytes_per_value"] = ratio(g.allocBytes, totalVals)
	f["generate.residual_ns_per_value"] = ratio(genResid, totalVals)
	f["parallel.ns_per_value.w1"] = ratio(parW1, totalVals)
	f["parallel.ns_per_value.wmax"] = ratio(parWmax, totalVals)
	f["parallel.scaling_eff"] = ratio(parW1, float64(procs)*parWmax)
	f["parallel.chunk_imbalance"] = ratio(g.imbalance, g.pjobs)
	f["parallel.steals_per_job"] = ratio(g.steals, g.pjobs)

	// The rung table: ns/value per rung and configuration.
	for c := 0; c < 4; c++ {
		s := &g.st[c]
		f[rungKey(1, c)] = ratio(s.mtNS+s.normNS+s.candNS+s.finNS, float64(s.accepted))
		f[rungKey(2, c)] = ratio(g.cycleNS[c], g.cycleValues[c])
		f[rungKey(3, c)] = ratio(g.chunkNS[c], g.values[c])
		f[rungKey(4, c)] = ratio(g.genNS[c], g.values[c])
		for w := range g.parNS[c] {
			f[rungKey(5+w, c)] = ratio(g.parNS[c][w], g.values[c])
		}
	}
	return f
}

// rungKey names a rung-table cell among a pass's figures; the table
// is printed, not reported as a metric. Rung 5+w-1 is GenerateParallel
// at w workers.
func rungKey(rung, c int) string { return fmt.Sprintf("rung%d.c%d", rung, c+1) }

// medianFigures combines repeated passes figure by figure.
func medianFigures(passes []figures) figures {
	out := figures{}
	for name := range passes[0] {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p[name]
		}
		out[name] = median(xs)
	}
	return out
}

// kernelLadder runs the ladder ladderReps times over the workload's
// generate jobs, records the per-layer figures (medians over the
// passes) and prints the rungs with their residuals.
func kernelLadder(ctx context.Context, jobs []job, budget int64, r *report) error {
	specs := ladderSpecs(jobs, budget)
	var passes []figures
	for range ladderReps {
		g, err := ladderPass(ctx, specs, r)
		if err != nil {
			return fmt.Errorf("kernel ladder: %w", err)
		}
		passes = append(passes, g.figures())
	}
	f := medianFigures(passes)
	for name, v := range f {
		if _, ok := lookupMetric(name); ok {
			r.set(name, v)
		}
	}
	printLadder(f, r)
	return nil
}

// printLadder adds the rung table to the run's notes: ns/value per rung
// and configuration, with the residual against the rung above.
func printLadder(f figures, r *report) {
	r.notef("kernel ladder, median ns/value of %d passes [residual vs the rung above]:", ladderReps)
	r.notef("  %-26s %18s %18s %18s %18s", "rung", "Config1", "Config2", "Config3", "Config4")
	names := []string{"1 stages (mt+normal+gamma)", "2 CycleBlock", "3 RunChunk", "4 Generate"}
	for w := 1; w <= runtime.GOMAXPROCS(0); w++ {
		names = append(names, fmt.Sprintf("5 GenerateParallel w=%d", w))
	}
	for i, name := range names {
		line := fmt.Sprintf("  %-26s", name)
		for c := 0; c < 4; c++ {
			v := f[rungKey(i+1, c)]
			if i == 0 {
				line += fmt.Sprintf(" %18.2f", v)
			} else {
				line += fmt.Sprintf(" %9.2f [%+6.2f]", v, v-f[rungKey(i, c)])
			}
		}
		r.notes = append(r.notes, line)
	}
}

// riskLadder times creditrisk.SimulateMC against decwi.PortfolioRisk on
// the workload's first few distinct risk jobs.
func riskLadder(jobs []job, r *report) error {
	var prNS, mcNS, scen []float64
	seen := map[string]bool{}
	for i := range jobs {
		spec := &jobs[i].spec
		k := specKey(spec)
		if spec.Kind != serve.KindRisk || seen[k] || len(seen) == 3 {
			continue
		}
		seen[k] = true
		p, err := portfolio(spec)
		if err != nil {
			return err
		}
		kc := kernelOf(spec.Config)
		for range ladderReps {
			t0 := time.Now()
			if _, err := creditrisk.SimulateMC(p, creditrisk.MCConfig{
				Scenarios: int(spec.Scenarios), Transform: kc.Transform, MTParams: kc.MTParams, Seed: spec.Seed,
			}); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := decwi.PortfolioRisk(p, decwi.ConfigID(spec.Config), int(spec.Scenarios), spec.BandUnit, spec.Seed); err != nil {
				return err
			}
			mcNS = append(mcNS, float64(t1.Sub(t0)))
			prNS = append(prNS, float64(time.Since(t1)))
			scen = append(scen, float64(spec.Scenarios))
		}
	}
	r.setN("risk.ns_per_scenario", ratio(sum(prNS), sum(scen)), len(prNS))
	r.setN("risk.mc_share", ratio(sum(mcNS), sum(prNS)), len(prNS))
	r.notef("rung 6 risk: PortfolioRisk %.1f ns/scenario, SimulateMC share %.3f (%d calls)",
		ratio(sum(prNS), sum(scen)), ratio(sum(mcNS), sum(prNS)), len(prNS))
	return nil
}
