// Package econ models semiconductor test economics: the cost per tested
// device as a function of test-cell capital, depreciation, utilization,
// and throughput. The reproduced paper motivates multi-site testing
// entirely through this lens (its references [3], [5], [6]: Evans ITC'99,
// Volkerink et al. ITC'01/VTS'02) but only reports throughput; this
// package closes the loop from devices/hour to dollars/device, so the
// repository can show the cost curve that justifies "optimal multi-site"
// — including the effect that a bigger ATE is only worth buying when the
// throughput gain outruns the capital.
package econ

import "multisite/internal/ate"

// TestCell is the capital and operating profile of one wafer test cell.
type TestCell struct {
	// ATECapitalUSD is the tester purchase price.
	ATECapitalUSD float64
	// ProberCapitalUSD is the wafer prober purchase price.
	ProberCapitalUSD float64
	// DepreciationYears spreads the capital linearly; 5 is customary.
	DepreciationYears float64
	// Utilization is the fraction of wall-clock time the cell tests
	// sellable product (0..1]. Evans reports 60–90% in practice.
	Utilization float64
	// OperatingUSDPerHour covers floor space, power, maintenance, and
	// operators, independent of utilization.
	OperatingUSDPerHour float64
}

// hoursPerYear is the wall-clock hours a production cell is scheduled:
// 24/7 operation.
const hoursPerYear = 24 * 365

// HourlyCostUSD returns the fully loaded cost of one productive hour:
// depreciation spread over the utilized hours, plus operating cost scaled
// to productive time.
func (c TestCell) HourlyCostUSD() float64 {
	capital := c.ATECapitalUSD + c.ProberCapitalUSD
	depreciationPerHour := capital / (c.DepreciationYears * hoursPerYear * c.Utilization)
	return depreciationPerHour + c.OperatingUSDPerHour/c.Utilization
}

// CostPerDevice returns the test cost of one device at the given
// throughput (devices per productive hour).
func (c TestCell) CostPerDevice(devicesPerHour float64) float64 {
	if devicesPerHour <= 0 {
		return 0
	}
	return c.HourlyCostUSD() / devicesPerHour
}

// DefaultCell is a 2005-era mid-range digital test cell: USD 1.2M ATE
// (512 channels with the paper's USD 8,000 / 16-channel block pricing
// plus mainframe), USD 400k prober, 5-year depreciation, 80% utilization,
// USD 50/h operations.
func DefaultCell() TestCell {
	return TestCell{
		ATECapitalUSD:       1_200_000,
		ProberCapitalUSD:    400_000,
		DepreciationYears:   5,
		Utilization:         0.8,
		OperatingUSDPerHour: 50,
	}
}

// CellForATE scales the default cell's ATE capital with the configured
// channel count and vector memory, using the paper's market prices: the
// mainframe is a fixed base, each 16-channel block costs USD 8,000, and
// each doubling of depth beyond 7 M costs USD 1,500 per block.
func CellForATE(a ate.ATE, prices ate.PriceModel) TestCell {
	cell := DefaultCell()
	const mainframeUSD = 800_000
	blocks := float64(a.Channels) / float64(prices.ChannelBlockSize)
	channelsUSD := blocks * prices.ChannelBlockUSD
	// Depth premium: count doublings beyond the 7 M base the paper's
	// price quote refers to.
	depthUSD := 0.0
	base := int64(7) << 20
	for d := base; d < a.Depth; d *= 2 {
		depthUSD += blocks * prices.DepthDoubleBlockUSD
	}
	cell.ATECapitalUSD = mainframeUSD + channelsUSD + depthUSD
	return cell
}
