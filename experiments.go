package decwi

import (
	"fmt"
	"strings"
	"time"

	"github.com/decwi/decwi/internal/fpga"
	"github.com/decwi/decwi/internal/perf"
	"github.com/decwi/decwi/internal/power"
	"github.com/decwi/decwi/internal/simt"
	"github.com/decwi/decwi/internal/stats"
)

// This file is the experiment API: one function per table/figure of the
// paper's evaluation section, each returning structured rows plus a
// Render method for the CLI harness. PaperWorkload is the Section IV-B
// setup (2,621,440 scenarios × 240 sectors ≈ 2.5 GB).

// PaperScenarios and PaperSectors are the Section IV-B workload.
const (
	PaperScenarios = 2621440
	PaperSectors   = 240
)

func paperWorkload() fpga.Workload { return fpga.PaperWorkload }

// ResourceRow is one column of Table II.
type ResourceRow struct {
	Config            string
	WorkItems         int
	SlicePct          float64
	DSPPct            float64
	BRAMPct           float64
	CorrectedSlicePct float64
	LimitedBy         string
}

// TableII regenerates the FPGA place-and-route utilization report.
func TableII() ([]ResourceRow, error) {
	var rows []ResourceRow
	for _, c := range AllConfigs {
		k, err := c.kernel()
		if err != nil {
			return nil, err
		}
		rep, err := fpga.PlaceAndRoute(k.Transform, k.MTParams, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ResourceRow{
			Config: k.Name, WorkItems: rep.WorkItems,
			SlicePct: rep.SlicePct, DSPPct: rep.DSPPct, BRAMPct: rep.BRAMPct,
			CorrectedSlicePct: rep.CorrectedSlicePct, LimitedBy: rep.LimitingResource,
		})
	}
	return rows, nil
}

// RenderTableII formats Table II with the paper's values side by side.
func RenderTableII(rows []ResourceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: FPGA P&R resources utilization (model vs paper)\n")
	fmt.Fprintf(&b, "%-8s %3s  %14s  %14s  %14s  %s\n", "Config", "WI", "Slice%", "DSP%", "BRAM%", "limit")
	paper := [][3]float64{{53.43, 23.67, 20.31}, {52.75, 23.67, 20.31}, {52.92, 21.56, 24.05}, {52.72, 21.56, 24.05}}
	for i, r := range rows {
		fmt.Fprintf(&b, "%-8s %3d  %6.2f (%5.2f)  %6.2f (%5.2f)  %6.2f (%5.2f)  %s\n",
			r.Config, r.WorkItems,
			r.SlicePct, paper[i][0], r.DSPPct, paper[i][1], r.BRAMPct, paper[i][2], r.LimitedBy)
	}
	return b.String()
}

// PnRSweep returns the resource utilization at each feasible work-item
// count for configuration c, ending at the place-and-route limit — the
// paper's iterative fitting procedure made visible (Section IV-C).
func PnRSweep(c ConfigID) ([]ResourceRow, error) {
	k, err := c.kernel()
	if err != nil {
		return nil, err
	}
	limit, err := fpga.PlaceAndRoute(k.Transform, k.MTParams, 0)
	if err != nil {
		return nil, err
	}
	var rows []ResourceRow
	for n := 1; n <= limit.WorkItems; n++ {
		rep, err := fpga.PlaceAndRoute(k.Transform, k.MTParams, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ResourceRow{
			Config: k.Name, WorkItems: rep.WorkItems,
			SlicePct: rep.SlicePct, DSPPct: rep.DSPPct, BRAMPct: rep.BRAMPct,
			CorrectedSlicePct: rep.CorrectedSlicePct, LimitedBy: rep.LimitingResource,
		})
	}
	return rows, nil
}

// RuntimeRow is one row of Table III.
type RuntimeRow struct {
	Label               string
	CPU, GPU, PHI, FPGA time.Duration
	// Paper values in ms for side-by-side reporting.
	PaperCPU, PaperGPU, PaperPHI, PaperFPGA float64
}

// TableIII regenerates the runtime comparison.
func TableIII() ([]RuntimeRow, error) {
	rows, err := perf.Table3(paperWorkload())
	if err != nil {
		return nil, err
	}
	out := make([]RuntimeRow, len(rows))
	for i, r := range rows {
		out[i] = RuntimeRow{
			Label: r.Label(), CPU: r.CPU, GPU: r.GPU, PHI: r.PHI, FPGA: r.FPGA,
			PaperCPU: perf.PaperTable3[i].CPU, PaperGPU: perf.PaperTable3[i].GPU,
			PaperPHI: perf.PaperTable3[i].PHI, PaperFPGA: perf.PaperTable3[i].FPGA,
		}
	}
	return out, nil
}

// RenderTableIII formats Table III, model (paper) per cell, in ms.
func RenderTableIII(rows []RuntimeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: runtime [ms], model (paper)\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %12s %12s\n", "Setup", "CPU", "GPU", "PHI", "FPGA")
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %5.0f (%4.0f) %5.0f (%4.0f) %5.0f (%4.0f) %5.0f (%4.0f)\n",
			r.Label, ms(r.CPU), r.PaperCPU, ms(r.GPU), r.PaperGPU,
			ms(r.PHI), r.PaperPHI, ms(r.FPGA), r.PaperFPGA)
	}
	return b.String()
}

// SweepPoint is one sample of the Fig. 5 sweeps.
type SweepPoint struct {
	Platform string
	Config   string
	X        int
	Runtime  time.Duration
}

// Fig5a regenerates the runtime-vs-localSize sweep (Config1 and Config3,
// globalSize 65536).
func Fig5a(localSizes []int) ([]SweepPoint, error) {
	if len(localSizes) == 0 {
		localSizes = []int{2, 4, 8, 16, 32, 64, 128, 256}
	}
	pts, err := perf.LocalSizeSweep(paperWorkload(), []perf.KernelConfig{perf.Config1, perf.Config3}, localSizes)
	if err != nil {
		return nil, err
	}
	return convertSweep(pts), nil
}

// Fig5b regenerates the runtime-vs-globalSize sweep at optimal localSize.
func Fig5b(globalSizes []int) ([]SweepPoint, error) {
	if len(globalSizes) == 0 {
		globalSizes = []int{1024, 4096, 16384, 65536, 262144}
	}
	pts, err := perf.GlobalSizeSweep(paperWorkload(), []perf.KernelConfig{perf.Config1, perf.Config3}, globalSizes)
	if err != nil {
		return nil, err
	}
	return convertSweep(pts), nil
}

func convertSweep(pts []perf.Fig5Point) []SweepPoint {
	out := make([]SweepPoint, len(pts))
	for i, p := range pts {
		out[i] = SweepPoint{Platform: p.Platform, Config: p.Config, X: p.X, Runtime: p.Runtime}
	}
	return out
}

// RenderSweep formats a Fig. 5 sweep as an x-by-series table.
func RenderSweep(title, xlabel string, pts []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	series := map[string][]SweepPoint{}
	var order []string
	for _, p := range pts {
		key := p.Platform + "/" + p.Config
		if _, seen := series[key]; !seen {
			order = append(order, key)
		}
		series[key] = append(series[key], p)
	}
	fmt.Fprintf(&b, "%-14s", xlabel)
	for _, k := range order {
		fmt.Fprintf(&b, " %14s", k)
	}
	fmt.Fprintln(&b)
	if len(order) == 0 {
		return b.String()
	}
	for i := range series[order[0]] {
		fmt.Fprintf(&b, "%-14d", series[order[0]][i].X)
		for _, k := range order {
			fmt.Fprintf(&b, " %11.0f ms", series[k][i].Runtime.Seconds()*1000)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig6Result is the distribution validation of Fig. 6.
type Fig6Result struct {
	Variance float64
	Samples  int
	// KSD / KSPValue test the engine output against the analytic CDF.
	KSD, KSPValue float64
	// TwoSampleP tests engine output against the independent oracle
	// sampler (the gamrnd stand-in).
	TwoSampleP float64
	// AD2 is the Anderson-Darling statistic against the analytic CDF —
	// tail-weighted, so a broken correction term or mis-gated twister
	// shows here first; ADReject is the 1 % decision.
	AD2      float64
	ADReject bool
	// Histogram density at bin centers, with the analytic PDF, for
	// plotting.
	BinCenters, Density, PDF []float64
}

// Fig6 runs the validation for one variance and sample count using
// Config1 (the remaining configurations produce the same distribution;
// see the core engine tests).
func Fig6(variance float64, samples int, seed uint64) (*Fig6Result, error) {
	if samples < 1000 {
		return nil, fmt.Errorf("decwi: need ≥ 1000 samples for Fig. 6, got %d", samples)
	}
	gen, err := Generate(Config1, GenerateOptions{
		Scenarios: int64(samples), Sectors: 1, Variance: variance, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	sample := gen.Sector(0)
	d, p, err := ValidateGamma(sample, variance)
	if err != nil {
		return nil, err
	}
	ref, err := ReferenceSample(samples, variance, seed+1)
	if err != nil {
		return nil, err
	}
	two := stats.KSTestTwoSample(stats.Float32To64(sample), stats.Float32To64(ref))

	gd, err := stats.NewGammaDist(1/variance, variance)
	if err != nil {
		return nil, err
	}
	ad, err := stats.ADTestOneSample(stats.Float32To64(sample), gd.CDF)
	if err != nil {
		return nil, err
	}
	adReject, err := ad.RejectAt(0.01)
	if err != nil {
		return nil, err
	}
	hi := 6 * variance
	if hi < 6 {
		hi = 6
	}
	h, err := stats.NewHistogram(0, hi, 60)
	if err != nil {
		return nil, err
	}
	h.AddAll(sample)
	res := &Fig6Result{
		Variance: variance, Samples: samples, KSD: d, KSPValue: p,
		TwoSampleP: two.PValue, AD2: ad.A2, ADReject: adReject,
	}
	for i := range h.Counts {
		c := h.BinCenter(i)
		res.BinCenters = append(res.BinCenters, c)
		res.Density = append(res.Density, h.Density(i))
		res.PDF = append(res.PDF, gd.PDF(c))
	}
	return res, nil
}

// Fig7Row is one point of the transfers-only sweep.
type Fig7Row struct {
	BurstRNs  int
	Engines   int
	Bandwidth float64
	Runtime   time.Duration
}

// Fig7 regenerates the transfers-only runtime sweep over burst lengths
// and work-item counts.
func Fig7(burstRNs, engines []int) ([]Fig7Row, error) {
	if len(burstRNs) == 0 {
		burstRNs = []int{16, 32, 64, 128, 256, 512, 1024, 2048}
	}
	if len(engines) == 0 {
		engines = []int{1, 2, 4, 6, 8}
	}
	pts, err := fpga.DefaultMemController().Fig7Sweep(paperWorkload().Bytes(), burstRNs, engines)
	if err != nil {
		return nil, err
	}
	out := make([]Fig7Row, len(pts))
	for i, p := range pts {
		out[i] = Fig7Row{BurstRNs: p.BurstRNs, Engines: p.Engines, Bandwidth: p.Bandwidth, Runtime: p.Runtime}
	}
	return out, nil
}

// PowerSample is one meter reading of the Fig. 8 trace.
type PowerSample struct {
	T time.Duration
	W float64
}

// Fig8Result is a synthesized measurement run.
type Fig8Result struct {
	Platform     string
	Config       string
	Samples      []PowerSample
	KernelStart  time.Duration
	WindowStart  time.Duration
	WindowEnd    time.Duration
	IdleW        float64
	EnergyPerInv float64 // joules
}

// Fig8 synthesizes the plug-power trace for one platform under one
// configuration (the paper plots Config1) and applies the integration
// procedure.
func Fig8(c ConfigID, platform string) (*Fig8Result, error) {
	k, err := c.kernel()
	if err != nil {
		return nil, err
	}
	cells, err := power.Fig9(paperWorkload())
	if err != nil {
		return nil, err
	}
	var rt time.Duration
	found := false
	for _, cell := range cells {
		if cell.Config == k.Name && cell.Platform == platform {
			rt = cell.Runtime
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("decwi: no runtime for %s on %s", k.Name, platform)
	}
	pw, err := power.DynamicPowerW(platform, k)
	if err != nil {
		return nil, err
	}
	tr, err := power.SynthesizeTrace(pw, rt, 150*time.Second)
	if err != nil {
		return nil, err
	}
	e, err := tr.DynamicEnergyPerInvocation()
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{
		Platform: platform, Config: k.Name,
		KernelStart: tr.KernelStart, WindowStart: tr.WindowStart, WindowEnd: tr.WindowEnd,
		IdleW: power.IdleSystemW, EnergyPerInv: e,
	}
	for _, s := range tr.Samples {
		res.Samples = append(res.Samples, PowerSample{T: s.T, W: s.W})
	}
	return res, nil
}

// EnergyRow is one bar of Fig. 9.
type EnergyRow struct {
	Config   string
	Platform string
	EnergyJ  float64
	// RatioVsFPGA is E(platform)/E(FPGA) for the configuration.
	RatioVsFPGA float64
}

// Fig9 regenerates the derived system-level dynamic energy per kernel
// invocation for all configurations and platforms.
func Fig9() ([]EnergyRow, error) {
	cells, err := power.Fig9(paperWorkload())
	if err != nil {
		return nil, err
	}
	var rows []EnergyRow
	for _, cell := range cells {
		r := EnergyRow{Config: cell.Config, Platform: cell.Platform, EnergyJ: cell.EnergyJ}
		if cell.Platform != "FPGA" {
			ratio, err := power.EfficiencyRatio(cells, cell.Config, cell.Platform)
			if err != nil {
				return nil, err
			}
			r.RatioVsFPGA = ratio
		} else {
			r.RatioVsFPGA = 1
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// DivergencePoint is one sample of the lockstep-vs-decoupled comparison
// (the quantitative content of Fig. 2).
type DivergencePoint struct {
	// Width is the hardware partition width (1 = decoupled / FPGA).
	Width int
	// Inflation is the fraction of issue slots the lockstep partition
	// spends relative to decoupled execution (≥ 1; 1 = no loss).
	Inflation float64
	// DivergentStepFrac is the fraction of steps on which the
	// accept/store branch diverged inside the partition.
	DivergentStepFrac float64
}

// DivergenceSweep measures lockstep divergence inflation across hardware
// partition widths for configuration c by running the real generators in
// lockstep (internal/simt): width 1 is the FPGA's decoupled work-item;
// 8/16/32 are CPU SIMD, Xeon Phi and GPU warp granularity.
func DivergenceSweep(c ConfigID, quota int64, widths []int, seed uint64) ([]DivergencePoint, error) {
	k, err := c.kernel()
	if err != nil {
		return nil, err
	}
	if quota < 1 {
		return nil, fmt.Errorf("decwi: quota %d must be ≥ 1", quota)
	}
	if len(widths) == 0 {
		widths = []int{1, 8, 16, 32}
	}
	pts, err := simt.InflationSweep(k.Transform, k.MTParams, 1.39, quota, widths, seed)
	if err != nil {
		return nil, err
	}
	out := make([]DivergencePoint, len(pts))
	for i, p := range pts {
		out[i] = DivergencePoint{Width: p.Width, Inflation: p.Inflation, DivergentStepFrac: p.DivFrac}
	}
	return out, nil
}

// CoSimReport is the outcome of the cycle-accurate dataflow
// co-simulation — the ground truth behind the analytic FPGA timing model
// and the quantitative form of Fig. 3.
type CoSimReport struct {
	// Cycles is the total cycle count until all data reached memory.
	Cycles int64
	// OverlapFraction is the share of memory-channel-busy cycles during
	// which at least one pipeline also produced (Fig. 3's interleaving).
	OverlapFraction float64
	// StallFraction is the share of pipeline cycles lost to stream
	// backpressure.
	StallFraction float64
	// EffectiveBandwidthGBs is the end-to-end achieved bandwidth.
	EffectiveBandwidthGBs float64
	// TransferBound reports whether the memory channel throttled the
	// pipelines: a substantial share of pipeline cycles were lost to
	// stream backpressure (in the compute-bound regime the FIFOs absorb
	// the channel's arbitration jitter and stalls stay marginal).
	TransferBound bool
}

// CoSimulate runs the cycle-accurate co-simulation of configuration c
// with the given per-work-item output quota (single sector).
func CoSimulate(c ConfigID, quota int64, seed uint64) (*CoSimReport, error) {
	k, err := c.kernel()
	if err != nil {
		return nil, err
	}
	res, err := fpga.RunCoSim(fpga.CoSimConfig{
		WorkItems: k.FPGAWorkItems, Quota: quota,
		Transform: k.Transform, MTParams: k.MTParams, Variance: 1.39,
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	stall := float64(res.StalledCycles) / float64(res.Cycles*int64(k.FPGAWorkItems))
	return &CoSimReport{
		Cycles:                res.Cycles,
		OverlapFraction:       res.OverlapFraction(),
		StallFraction:         stall,
		EffectiveBandwidthGBs: res.EffectiveBandwidthGBs,
		TransferBound:         stall > 0.10,
	}, nil
}

// RejectionRateRow reports the Section IV-E rejection-rate measurements.
type RejectionRateRow struct {
	Transform string
	Variance  float64
	Rate      float64
	// PaperRate is the published value (0 when the paper gives none).
	PaperRate float64
}

// RejectionRates measures the combined rejection rates over the paper's
// variance sweep (v = 0.1, 1.39, 100) for both transform families.
func RejectionRates(outputs int, seed uint64) ([]RejectionRateRow, error) {
	if outputs < 1000 {
		return nil, fmt.Errorf("decwi: need ≥ 1000 outputs, got %d", outputs)
	}
	paper := map[string]map[float64]float64{
		"Marsaglia-Bray":  {0.1: 0.278, 1.39: 0.303, 100: 0.337},
		"ICDF FPGA-style": {0.1: 0.053, 1.39: 0.074, 100: 0.102},
	}
	var rows []RejectionRateRow
	for _, c := range []ConfigID{Config1, Config3} {
		k, err := c.kernel()
		if err != nil {
			return nil, err
		}
		for _, v := range []float64{0.1, 1.39, 100} {
			rate, err := MeasureRejection(c, v, outputs, seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RejectionRateRow{
				Transform: k.Transform.String(), Variance: v, Rate: rate,
				PaperRate: paper[k.Transform.String()][v],
			})
		}
	}
	return rows, nil
}
