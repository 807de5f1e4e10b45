package decwi

import (
	"fmt"
	"math"

	"github.com/decwi/decwi/internal/creditrisk"
	"github.com/decwi/decwi/internal/telemetry"
)

// This file exposes the CreditRisk+ application layer (Section II-D4):
// the consumer of the gamma sector variables the kernels generate.

// Sector is one systematic risk factor with gamma variance v.
type Sector = creditrisk.Sector

// Obligor is one loan: default probability, exposure, sector weights
// summing to 1.
type Obligor = creditrisk.Obligor

// Portfolio is a CreditRisk+ portfolio.
type Portfolio = creditrisk.Portfolio

// NewUniformPortfolio builds a homogeneous portfolio of n obligors with
// the given PD and exposure, affiliated round-robin to sectors at
// variance v each.
func NewUniformPortfolio(sectors int, variance float64, n int, pd, exposure float64) (*Portfolio, error) {
	if sectors < 1 {
		return nil, fmt.Errorf("decwi: need at least one sector")
	}
	secs := make([]Sector, sectors)
	for k := range secs {
		secs[k] = Sector{Name: fmt.Sprintf("S%d", k), Variance: variance}
	}
	return creditrisk.UniformPortfolio(secs, n, pd, exposure)
}

// MaxPanjerUnits caps the truncation of PortfolioRisk's exact Panjer
// cross-check, in band units. The recursion allocates a pmf of that
// many units per sector and convolves the sectors in O(units²), so a
// tiny band unit must be an error rather than a multi-gigabyte
// allocation and hours of convolution.
const MaxPanjerUnits = 1 << 16

// panjerUnits sizes the Panjer truncation of a loss distribution with
// mean el and standard deviation sd to comfortably cover the 99.9 %
// tail: (el + 20·sd)/bandUnit units, at least 64. It errors when that
// is not finite or exceeds MaxPanjerUnits.
func panjerUnits(el, sd, bandUnit float64) (int, error) {
	units := (el + 20*sd) / bandUnit
	if !(units <= MaxPanjerUnits) {
		return 0, fmt.Errorf("decwi: Panjer truncation (EL+20σ)/band_unit = %g units is over the cap of %d; use a larger band unit", units, MaxPanjerUnits)
	}
	return max(int(units), 64), nil
}

// UniformPanjerUnits returns the Panjer truncation PortfolioRisk sizes
// for NewUniformPortfolio(sectors, variance, n, pd, exposure) at
// bandUnit, or its error. It takes the loss moments in closed form and
// builds no portfolio, so a server can reject an oversized spec before
// allocating anything. The closed form may differ from the summed
// moments by rounding, so within a few ulps of the cap the two can
// disagree; PortfolioRisk enforces the cap itself either way.
func UniformPanjerUnits(sectors int, variance float64, n int, pd, exposure, bandUnit float64) (int, error) {
	if sectors < 1 || n < 1 {
		return 0, fmt.Errorf("decwi: need at least one sector and one obligor")
	}
	// Obligor i sits in sector i mod sectors: n mod sectors sectors hold
	// ⌊n/sectors⌋+1 obligors, the rest ⌊n/sectors⌋.
	q, r := n/sectors, n%sectors
	muHi := float64(q+1) * pd * exposure
	muLo := float64(q) * pd * exposure
	el := float64(n) * pd * exposure
	v := el*exposure + variance*(float64(r)*muHi*muHi+float64(sectors-r)*muLo*muLo)
	return panjerUnits(el, math.Sqrt(v), bandUnit)
}

// RiskReport summarizes a portfolio risk run.
type RiskReport struct {
	// Scenarios is the Monte-Carlo sample size.
	Scenarios int
	// ExpectedLoss / LossStd are the simulated moments; AnalyticEL /
	// AnalyticStd the closed-form cross-checks.
	ExpectedLoss, LossStd   float64
	AnalyticEL, AnalyticStd float64
	// VaR999 and ES999 are the 99.9 % value-at-risk and expected
	// shortfall (the regulatory tail measures).
	VaR999, ES999 float64
	// PanjerVaR999 is the exact banded recursion's quantile, when a
	// banding unit was supplied (0 otherwise).
	PanjerVaR999 float64
	// RiskContributions is the CSFB capital allocation: each obligor's
	// marginal contribution to the loss standard deviation
	// (Euler-consistent: they sum to AnalyticStd).
	RiskContributions []float64
}

// PortfolioRisk runs the CreditRisk+ Monte-Carlo using the gamma
// generator of configuration c, cross-checked against the analytic
// moments and (when bandUnit > 0) the exact Panjer recursion.
func PortfolioRisk(p *Portfolio, c ConfigID, scenarios int, bandUnit float64, seed uint64) (*RiskReport, error) {
	return PortfolioRiskObserved(p, c, scenarios, bandUnit, seed, nil)
}

// PortfolioRiskObserved is PortfolioRisk with a live metrics recorder:
// the Monte-Carlo loop feeds rec a scenario progress counter,
// per-sector rejection-trip histograms and a defaults-per-scenario
// histogram, so a long run can be scraped over the -http observability
// server while it executes. A nil rec behaves exactly like
// PortfolioRisk.
func PortfolioRiskObserved(p *Portfolio, c ConfigID, scenarios int, bandUnit float64, seed uint64, rec *telemetry.Recorder) (*RiskReport, error) {
	k, err := c.kernel()
	if err != nil {
		return nil, err
	}
	// Size the Panjer truncation first: an oversized one fails before
	// the Monte-Carlo runs.
	var maxUnits int
	if bandUnit > 0 {
		if maxUnits, err = panjerUnits(p.ExpectedLoss(), math.Sqrt(p.LossVariance()), bandUnit); err != nil {
			return nil, err
		}
	}
	res, err := creditrisk.SimulateMC(p, creditrisk.MCConfig{
		Scenarios: scenarios, Transform: k.Transform, MTParams: k.MTParams, Seed: seed,
		Telemetry: rec,
	})
	if err != nil {
		return nil, err
	}
	v, err := res.VaR(0.999)
	if err != nil {
		return nil, err
	}
	es, err := res.ExpectedShortfall(0.999)
	if err != nil {
		return nil, err
	}
	rc, err := p.RiskContributions()
	if err != nil {
		return nil, err
	}
	rep := &RiskReport{
		Scenarios:         scenarios,
		ExpectedLoss:      res.MeanLoss,
		LossStd:           math.Sqrt(res.LossVar),
		AnalyticEL:        p.ExpectedLoss(),
		AnalyticStd:       math.Sqrt(p.LossVariance()),
		VaR999:            v,
		ES999:             es,
		RiskContributions: rc,
	}
	if bandUnit > 0 {
		bp, err := creditrisk.NewBandedPortfolio(p, bandUnit)
		if err != nil {
			return nil, err
		}
		dist, err := bp.PanjerLossDistribution(maxUnits)
		if err != nil {
			return nil, err
		}
		pv, err := dist.Quantile(0.999)
		if err != nil {
			return nil, err
		}
		rep.PanjerVaR999 = pv
	}
	return rep, nil
}
