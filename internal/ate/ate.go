// Package ate models the automatic test equipment (ATE) and probe station
// that together form the fixed "target test cell" of the reproduced paper:
// a channel count, a vector memory depth per channel, a test clock, optional
// stimuli-broadcast capability, and the probe-station index and contact-test
// timing constants. It also carries the market-price model used in the
// paper's Section 7 cost trade-off (channels vs vector memory).
package ate

import (
	"fmt"
)

// ATE describes the tester resources available for multi-site testing.
type ATE struct {
	// Channels is the total number of digital ATE channels N.
	Channels int `json:"channels"`
	// Depth is the vector memory depth per channel D, in vectors
	// (equivalently test clock cycles, one vector per cycle).
	Depth int64 `json:"depth"`
	// ClockHz is the test clock frequency.
	ClockHz float64 `json:"clock_hz"`
	// Broadcast reports whether the ATE can broadcast stimulus channels
	// to multiple sites. With broadcast, the k/2 input channels of a
	// site are shared across all sites.
	Broadcast bool `json:"broadcast"`
}

// Validate checks the ATE description.
func (a ATE) Validate() error {
	if a.Channels < 2 {
		return fmt.Errorf("ate: need at least 2 channels, have %d", a.Channels)
	}
	if a.Depth < 1 {
		return fmt.Errorf("ate: need positive vector memory depth, have %d", a.Depth)
	}
	if a.ClockHz <= 0 {
		return fmt.Errorf("ate: need positive clock frequency, have %g", a.ClockHz)
	}
	return nil
}

// MaxWiresPerSite returns the maximum TAM wires (channel pairs) one site
// may use so that n sites fit on the ATE. Without broadcast every site
// needs k = 2w private channels: n·2w ≤ N. With broadcast the w input
// channels are shared: w + n·w ≤ N.
func (a ATE) MaxWiresPerSite(n int) int {
	if n < 1 {
		return 0
	}
	if a.Broadcast {
		return a.Channels / (n + 1)
	}
	return a.Channels / (2 * n)
}

// MaxSites returns the maximum number of sites n for a per-site channel
// count k (k even, k = 2·wires). Without broadcast n = ⌊N/k⌋; with
// broadcast k/2 input channels are shared: k/2 + n·k/2 ≤ N, i.e.
// n = ⌊2N/k − 1⌋ = ⌊(2N−k)/k⌋.
func (a ATE) MaxSites(k int) int {
	if k <= 0 || k > a.Channels {
		return 0
	}
	if a.Broadcast {
		return (2*a.Channels - k) / k
	}
	return a.Channels / k
}

// SecondsFor converts a cycle count to seconds at the ATE test clock.
func (a ATE) SecondsFor(cycles int64) float64 {
	return float64(cycles) / a.ClockHz
}

// ProbeStation carries the wafer prober timing constants of the paper's
// cost model (Section 4).
type ProbeStation struct {
	// IndexTime ti is the time to step the probe card to the next set
	// of dies, in seconds. The paper treats it as a constant of the
	// probe station.
	IndexTime float64 `json:"index_time"`
	// ContactTime tc is the duration of the contact test, in seconds.
	// All terminals are contact-tested simultaneously, so it is constant.
	ContactTime float64 `json:"contact_time"`
}

// Validate checks the probe station constants.
func (p ProbeStation) Validate() error {
	if p.IndexTime < 0 || p.ContactTime < 0 {
		return fmt.Errorf("probe station: negative timing constant (ti=%g, tc=%g)",
			p.IndexTime, p.ContactTime)
	}
	return nil
}

// DefaultProbeStation returns the constants used throughout the
// reproduction: ti = 0.65 s, tc = 0.1 s. The paper's exact values are
// illegible in the available text; these reproduce both the magnitude of
// its Figure 6 operating point (Dth ≈ 1.3·10⁴ at N = 512, D = 7 M) and
// the Section 7 ordering that doubling vector memory beats buying
// channels for equal money (see DESIGN.md §4).
func DefaultProbeStation() ProbeStation {
	return ProbeStation{IndexTime: 0.65, ContactTime: 0.1}
}

// PriceModel captures the Section 7 market prices for extending an ATE.
type PriceModel struct {
	// ChannelBlockUSD is the price of one block of extra channels
	// (at base memory depth).
	ChannelBlockUSD float64
	// ChannelBlockSize is the number of channels per block.
	ChannelBlockSize int
	// DepthDoubleBlockUSD is the price of doubling the vector memory
	// of one block of channels.
	DepthDoubleBlockUSD float64
}

// DefaultPriceModel returns the paper's quoted prices: USD 8,000 for 16
// additional channels with 7 M depth, and USD 1,500 for upgrading 16
// channels from 7 M to 14 M.
func DefaultPriceModel() PriceModel {
	return PriceModel{
		ChannelBlockUSD:     8000,
		ChannelBlockSize:    16,
		DepthDoubleBlockUSD: 1500,
	}
}

// DoubleDepthCostUSD returns the cost of doubling the vector memory for
// all channels of the given ATE.
func (p PriceModel) DoubleDepthCostUSD(a ATE) float64 {
	blocks := float64(a.Channels) / float64(p.ChannelBlockSize)
	return blocks * p.DepthDoubleBlockUSD
}

// ChannelsForBudgetUSD returns how many extra channels the budget buys,
// rounded down to a whole number of channels.
func (p PriceModel) ChannelsForBudgetUSD(budget float64) int {
	perChannel := p.ChannelBlockUSD / float64(p.ChannelBlockSize)
	return int(budget / perChannel)
}
