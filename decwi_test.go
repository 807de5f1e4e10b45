package decwi_test

import (
	"math"
	"testing"
	"time"

	decwi "github.com/decwi/decwi"
)

func TestConfigDescribe(t *testing.T) {
	want := []struct {
		id        decwi.ConfigID
		transform string
		exponent  int
		states    int
		wi        int
	}{
		{decwi.Config1, "Marsaglia-Bray", 19937, 624, 6},
		{decwi.Config2, "Marsaglia-Bray", 521, 17, 6},
		{decwi.Config3, "ICDF FPGA-style", 19937, 624, 8},
		{decwi.Config4, "ICDF FPGA-style", 521, 17, 8},
	}
	for _, tc := range want {
		info, err := tc.id.Describe()
		if err != nil {
			t.Fatal(err)
		}
		if info.Transform != tc.transform || info.MTExponent != tc.exponent ||
			info.MTStates != tc.states || info.FPGAWorkItems != tc.wi {
			t.Errorf("%v: %+v", tc.id, info)
		}
	}
	if _, err := decwi.ConfigID(9).Describe(); err == nil {
		t.Error("invalid config should fail")
	}
	if decwi.Config1.String() != "Config1" {
		t.Error("String")
	}
	if decwi.ConfigID(0).String() == "Config0" {
		t.Error("invalid String should be marked")
	}
}

// TestExtensionZiggurat: the conclusion's extensibility claim — the
// ziggurat rejection method drops into the decoupled engine unchanged and
// produces the same gamma distribution at its own (lower) rejection rate.
func TestExtensionZiggurat(t *testing.T) {
	info, err := decwi.ExtensionZiggurat.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if info.Transform != "Ziggurat" || !info.Rejecting {
		t.Fatalf("info %+v", info)
	}
	if decwi.ExtensionZiggurat.String() != "ConfigZ(ext)" {
		t.Fatal("name")
	}
	res, err := decwi.Generate(decwi.ExtensionZiggurat, decwi.GenerateOptions{
		Scenarios: 30000, Sectors: 1, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkItems != 9 {
		t.Fatalf("extension work-items %d, want 9", res.WorkItems)
	}
	// Combined rejection: ziggurat (~2.5 %) + Marsaglia-Tsang (~2.3 %).
	if res.RejectionRate < 0.02 || res.RejectionRate > 0.09 {
		t.Fatalf("ziggurat combined rejection %f", res.RejectionRate)
	}
	_, p, err := decwi.ValidateGamma(res.Sector(0), 1.39)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("ziggurat-config output rejected by KS: p=%g", p)
	}
	// The divergence machinery accepts the extension config too.
	pts, err := decwi.DivergenceSweep(decwi.ExtensionZiggurat, 500, []int{1, 32}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Inflation != 1 || pts[1].Inflation < 1 {
		t.Fatalf("divergence sweep %+v", pts)
	}
}

func TestGenerateQuickstart(t *testing.T) {
	res, err := decwi.Generate(decwi.Config2, decwi.GenerateOptions{
		Scenarios: 20000, Sectors: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 40000 {
		t.Fatalf("values %d", len(res.Values))
	}
	if res.WorkItems != 6 {
		t.Fatalf("default work-items %d, want the P&R outcome 6", res.WorkItems)
	}
	if math.Abs(res.RejectionRate-0.303) > 0.03 {
		t.Fatalf("rejection rate %f", res.RejectionRate)
	}
	if res.FPGATime <= 0 {
		t.Fatal("modelled FPGA time missing")
	}
	// Generate is the sequential schedule: one chunk on one worker.
	if res.Chunks != 1 || res.Workers != 1 || res.Steals != 0 {
		t.Fatalf("Generate ran %d chunks on %d workers (%d stolen), want 1/1/0", res.Chunks, res.Workers, res.Steals)
	}
	// Distribution check through the public API.
	d, p, err := decwi.ValidateGamma(res.Sector(0), 1.39)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("KS rejected: D=%g p=%g", d, p)
	}
	// Errors surface.
	if _, err := decwi.Generate(decwi.ConfigID(0), decwi.GenerateOptions{Scenarios: 1, Sectors: 1}); err == nil {
		t.Fatal("bad config should fail")
	}
	if _, err := decwi.Generate(decwi.Config1, decwi.GenerateOptions{Scenarios: 0, Sectors: 1}); err == nil {
		t.Fatal("bad options should fail")
	}
}

func TestReferenceSampleAndValidate(t *testing.T) {
	ref, err := decwi.ReferenceSample(30000, 1.39, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := decwi.ValidateGamma(ref, 1.39)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("oracle rejected itself: p=%g", p)
	}
	if _, err := decwi.ReferenceSample(0, 1.39, 1); err == nil {
		t.Fatal("n=0 should fail")
	}
	if _, err := decwi.ReferenceSample(10, -1, 1); err == nil {
		t.Fatal("bad variance should fail")
	}
	if _, _, err := decwi.ValidateGamma(nil, 1.39); err == nil {
		t.Fatal("empty sample should fail")
	}
}

func TestTableIIPublic(t *testing.T) {
	rows, err := decwi.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].WorkItems != 6 || rows[2].WorkItems != 8 {
		t.Fatalf("work items %d/%d", rows[0].WorkItems, rows[2].WorkItems)
	}
	out := decwi.RenderTableII(rows)
	if len(out) == 0 || out[0] != 'T' {
		t.Fatal("render empty")
	}
}

func TestTableIIIPublic(t *testing.T) {
	rows, err := decwi.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].FPGA >= rows[0].CPU {
		t.Fatal("Config1: FPGA should beat CPU")
	}
	if s := decwi.RenderTableIII(rows); len(s) < 100 {
		t.Fatal("render too short")
	}
}

func TestFig5Public(t *testing.T) {
	a, err := decwi.Fig5a(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3*2*8 {
		t.Fatalf("fig5a points %d", len(a))
	}
	b, err := decwi.Fig5b(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 3*2*5 {
		t.Fatalf("fig5b points %d", len(b))
	}
	if s := decwi.RenderSweep("Fig 5a", "localSize", a); len(s) < 100 {
		t.Fatal("render too short")
	}
}

func TestFig6Public(t *testing.T) {
	res, err := decwi.Fig6(1.39, 50000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.KSPValue < 0.001 {
		t.Fatalf("Fig6 KS rejected: %g", res.KSPValue)
	}
	if res.TwoSampleP < 0.001 {
		t.Fatalf("Fig6 two-sample rejected: %g", res.TwoSampleP)
	}
	if res.ADReject {
		t.Fatalf("Fig6 Anderson-Darling rejected the tails: A2=%g", res.AD2)
	}
	if len(res.BinCenters) != 60 || len(res.Density) != 60 || len(res.PDF) != 60 {
		t.Fatal("histogram series missing")
	}
	if _, err := decwi.Fig6(1.39, 10, 3); err == nil {
		t.Fatal("tiny sample should fail")
	}
}

func TestFig7Public(t *testing.T) {
	rows, err := decwi.Fig7(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8*5 {
		t.Fatalf("rows %d", len(rows))
	}
	// Saturated bandwidth near the paper's ≈3.9 GB/s.
	last := rows[len(rows)-1]
	if last.Bandwidth < 3.5 || last.Bandwidth > 4.2 {
		t.Fatalf("saturated bandwidth %g", last.Bandwidth)
	}
}

func TestFig8Public(t *testing.T) {
	res, err := decwi.Fig8(decwi.Config1, "FPGA")
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowEnd-res.WindowStart != 100*time.Second {
		t.Fatal("integration window wrong")
	}
	if len(res.Samples) < 150 {
		t.Fatalf("trace too short: %d samples", len(res.Samples))
	}
	// FPGA energy/invocation ≈ 45 W × 0.7 s ≈ 31.5 J.
	if res.EnergyPerInv < 25 || res.EnergyPerInv > 40 {
		t.Fatalf("FPGA energy per invocation %g J", res.EnergyPerInv)
	}
	if _, err := decwi.Fig8(decwi.Config1, "TPU"); err == nil {
		t.Fatal("unknown platform should fail")
	}
}

func TestFig9Public(t *testing.T) {
	rows, err := decwi.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Platform == "FPGA" && r.RatioVsFPGA != 1 {
			t.Fatalf("FPGA self-ratio %g", r.RatioVsFPGA)
		}
		if r.Platform != "FPGA" && r.RatioVsFPGA < 1.8 {
			t.Fatalf("%s/%s ratio %g below the paper's minimum band", r.Config, r.Platform, r.RatioVsFPGA)
		}
	}
}

func TestRejectionRatesPublic(t *testing.T) {
	rows, err := decwi.RejectionRates(50000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Transform == "Marsaglia-Bray" && math.Abs(r.Rate-r.PaperRate) > 0.02 {
			t.Errorf("M-Bray v=%g: rate %f vs paper %f", r.Variance, r.Rate, r.PaperRate)
		}
	}
	if _, err := decwi.RejectionRates(10, 9); err == nil {
		t.Fatal("tiny run should fail")
	}
}

func TestMeasureRejectionPublic(t *testing.T) {
	r, err := decwi.MeasureRejection(decwi.Config1, 1.39, 50000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.303) > 0.02 {
		t.Fatalf("rate %f", r)
	}
	if _, err := decwi.MeasureRejection(decwi.Config1, 0, 100, 1); err == nil {
		t.Fatal("bad variance should fail")
	}
	if _, err := decwi.MeasureRejection(decwi.Config1, 1, 0, 1); err == nil {
		t.Fatal("bad outputs should fail")
	}
}

func TestSessionEndToEnd(t *testing.T) {
	s, err := decwi.NewSession("FPGA")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	opts := decwi.GenerateOptions{Scenarios: 8192, Sectors: 2, Seed: 5}
	run, err := s.EnqueueGamma(decwi.Config4, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Host) != 8192*2 {
		t.Fatalf("host data %d", len(run.Host))
	}
	if run.ReadRequests != 1 {
		t.Fatalf("device-level combining should issue 1 read, got %d", run.ReadRequests)
	}
	if run.DeviceTime <= 0 {
		t.Fatal("profiled device time missing")
	}
	for i, v := range run.Host {
		if !(v > 0) {
			t.Fatalf("host slot %d = %g", i, v)
		}
	}

	// Host-level combining: same data, N read requests, slower read.
	run2, err := s.EnqueueGamma(decwi.Config4, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	if run2.ReadRequests != 8 {
		t.Fatalf("host-level combining should issue 8 reads, got %d", run2.ReadRequests)
	}
	for i := range run.Host {
		if run.Host[i] != run2.Host[i] {
			t.Fatalf("combining strategies disagree at %d", i)
		}
	}
	if run2.ReadTime <= run.ReadTime {
		t.Fatalf("host-level read %v should be slower than device-level %v", run2.ReadTime, run.ReadTime)
	}

	if _, err := decwi.NewSession("TPU"); err == nil {
		t.Fatal("unknown device should fail")
	}
}

// TestCoSimulatePublic: the facade co-simulation distinguishes the two
// Table III regimes — Config1 compute-bound, Config3 transfer-bound.
func TestCoSimulatePublic(t *testing.T) {
	c1, err := decwi.CoSimulate(decwi.Config2, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c1.TransferBound {
		t.Error("Config2 should be compute-bound")
	}
	if c1.OverlapFraction < 0.85 {
		t.Errorf("Config2 overlap %f", c1.OverlapFraction)
	}
	c3, err := decwi.CoSimulate(decwi.Config4, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !c3.TransferBound {
		t.Error("Config4 should be transfer-bound")
	}
	if c3.EffectiveBandwidthGBs < 3.5 || c3.EffectiveBandwidthGBs > 4.2 {
		t.Errorf("Config4 bandwidth %f", c3.EffectiveBandwidthGBs)
	}
	if c3.StallFraction <= c1.StallFraction {
		t.Error("transfer-bound config should stall more")
	}
	if _, err := decwi.CoSimulate(decwi.ConfigID(0), 100, 1); err == nil {
		t.Error("bad config should fail")
	}
}

// TestPortfolioRiskPanjerCap: a band unit whose Panjer truncation is
// past MaxPanjerUnits, or past the int range, is an error before any
// allocation, and UniformPanjerUnits — the closed form a server
// validates with — agrees with the moments of the built portfolio.
func TestPortfolioRiskPanjerCap(t *testing.T) {
	for _, shape := range []struct {
		sectors, n int
		v, pd, e   float64
	}{{3, 30, 1.39, 0.02, 100}, {4, 50, 3.1, 0.3, 1}, {7, 5, 0.5, 0.01, 2.5}} {
		p, err := decwi.NewUniformPortfolio(shape.sectors, shape.v, shape.n, shape.pd, shape.e)
		if err != nil {
			t.Fatal(err)
		}
		tail := p.ExpectedLoss() + 20*math.Sqrt(p.LossVariance())
		for _, unit := range []float64{100, 1, tail / 1000, tail / (decwi.MaxPanjerUnits - 1)} {
			got, err := decwi.UniformPanjerUnits(shape.sectors, shape.v, shape.n, shape.pd, shape.e, unit)
			if err != nil {
				t.Fatalf("%+v unit %g: %v", shape, unit, err)
			}
			// The two moment computations round differently, which
			// may move an exact integer quotient by one unit.
			if want := max(int(tail/unit), 64); got < want-1 || got > want+1 {
				t.Fatalf("%+v unit %g: closed form %d units, built portfolio %d", shape, unit, got, want)
			}
		}
		for _, unit := range []float64{tail / (2 * decwi.MaxPanjerUnits), 1e-300} {
			if _, err := decwi.UniformPanjerUnits(shape.sectors, shape.v, shape.n, shape.pd, shape.e, unit); err == nil {
				t.Fatalf("%+v unit %g: closed form accepted an oversized truncation", shape, unit)
			}
			if _, err := decwi.PortfolioRisk(p, decwi.Config2, 10, unit, 1); err == nil {
				t.Fatalf("%+v unit %g: PortfolioRisk accepted an oversized truncation", shape, unit)
			}
		}
	}
}

func TestPortfolioRiskPublic(t *testing.T) {
	p, err := decwi.NewUniformPortfolio(3, 1.39, 30, 0.02, 100)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := decwi.PortfolioRisk(p, decwi.Config2, 20000, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.ExpectedLoss-rep.AnalyticEL)/rep.AnalyticEL > 0.08 {
		t.Fatalf("EL %g vs analytic %g", rep.ExpectedLoss, rep.AnalyticEL)
	}
	if math.Abs(rep.LossStd-rep.AnalyticStd)/rep.AnalyticStd > 0.15 {
		t.Fatalf("std %g vs analytic %g", rep.LossStd, rep.AnalyticStd)
	}
	if rep.VaR999 < rep.ExpectedLoss {
		t.Fatal("VaR below expected loss is impossible here")
	}
	if rep.ES999 < rep.VaR999 {
		t.Fatal("ES below VaR")
	}
	if rep.PanjerVaR999 <= 0 {
		t.Fatal("Panjer cross-check missing")
	}
	if len(rep.RiskContributions) != 30 {
		t.Fatalf("risk contributions %d, want one per obligor", len(rep.RiskContributions))
	}
	var rcSum float64
	for _, c := range rep.RiskContributions {
		rcSum += c
	}
	if math.Abs(rcSum-rep.AnalyticStd)/rep.AnalyticStd > 1e-12 {
		t.Fatalf("risk contributions sum %g, want σ=%g", rcSum, rep.AnalyticStd)
	}
	// MC and Panjer agree within banding + sampling slack.
	if math.Abs(rep.VaR999-rep.PanjerVaR999) > 3*100 {
		t.Fatalf("VaR999 MC %g vs Panjer %g", rep.VaR999, rep.PanjerVaR999)
	}
	if _, err := decwi.NewUniformPortfolio(0, 1, 1, 0.1, 1); err == nil {
		t.Fatal("zero sectors should fail")
	}
}
