// Package sim animates a synthnet.World day by day, producing the
// observational datasets the paper's analyses consume: daily and weekly
// active-address sets (the CDN view), per-address traffic aggregates,
// sampled User-Agent statistics, ICMP-responsiveness snapshots (the
// scanner view), a BGP change log, and the ground-truth restructuring
// schedule.
//
// The simulator is the substitute for the proprietary CDN server logs
// (DESIGN.md, "Substitutions"): every mechanism the paper attributes
// address activity to — subscriber behaviour, weekday/weekend effects,
// static assignment, pool cycling, lease policies, gateways, bots,
// network restructuring and subscriber churn — is modelled explicitly,
// so each analysis can be validated against known generative intent.
//
// Observations leave the simulator as typed obs events: Run collects
// them into the in-memory Result (an obs.Sink), and RunTo additionally
// streams them into caller-supplied sinks (an obs.Writer, a TCP
// connection to a collector) as each day and week completes.
package sim

import (
	"ipscope/internal/obs"
	"ipscope/internal/synthnet"
)

// Config controls a simulation run. It is the obs-layer RunConfig: the
// same structure travels inside every stored dataset, which is what
// lets analyses rebuild their context without re-simulation.
type Config = obs.RunConfig

// DefaultConfig returns the configuration used by the experiment
// harness; values follow the paper's observations.
func DefaultConfig() Config {
	return Config{
		Days:             364,
		DailyStart:       224, // mid-August
		DailyLen:         112,
		UADays:           28,
		PrefixChangeFrac: 0.18,
		BlockChangeFrac:  0.06,
		BGPCoupleProb:    0.15,
		BGPNoisePerDay:   0.05,
		JoinFrac:         0.07,
		LeaveFrac:        0.07,
		TrafficGrowth:    0.6,
	}
}

// TinyConfig returns a fast configuration for unit tests: 8 weeks with
// a 4-week daily window.
func TinyConfig() Config {
	c := DefaultConfig()
	c.Days = 56
	c.DailyStart = 14
	c.DailyLen = 28
	c.UADays = 14
	return c
}

func normalize(c Config) Config {
	d := DefaultConfig()
	if c.Days <= 0 {
		c.Days = d.Days
	}
	if c.DailyLen <= 0 {
		c.DailyLen = d.DailyLen
	}
	if c.DailyStart < 0 || c.DailyStart+c.DailyLen > c.Days {
		c.DailyStart = c.Days - c.DailyLen
		if c.DailyStart < 0 {
			c.DailyStart = 0
			c.DailyLen = c.Days
		}
	}
	if c.UADays <= 0 || c.UADays > c.DailyLen {
		c.UADays = min(d.UADays, c.DailyLen)
	}
	if len(c.ICMPScanDays) == 0 {
		// 8 snapshots across one month in the middle of the daily window.
		base := c.DailyStart + c.DailyLen/2 - 14
		if base < 0 {
			base = 0
		}
		for i := 0; i < 8; i++ {
			day := base + i*4
			if day >= c.Days {
				day = c.Days - 1
			}
			c.ICMPScanDays = append(c.ICMPScanDays, day)
		}
	}
	return c
}

// RestructureKind classifies a ground-truth assignment change.
type RestructureKind = obs.RestructureKind

// Restructure kinds (Section 5: reallocation, reconfiguration,
// repurposing; plus activation/deactivation of whole ranges).
const (
	PolicySwitch = obs.PolicySwitch // new assignment practice
	Deactivate   = obs.Deactivate   // range goes dark
	Activate     = obs.Activate     // unused range brought into service
)

// Restructure records one scheduled assignment change (ground truth).
type Restructure = obs.Restructure

// BlockTraffic aggregates per-address activity over the daily window.
type BlockTraffic = obs.BlockTraffic

// UAStat summarizes sampled User-Agent strings for one /24 block.
type UAStat = obs.UAStat

// Result is everything a simulation run produces: the in-memory
// observation dataset plus the world it was generated from. Result is
// the canonical in-memory obs.Sink — Run is just RunTo with no extra
// sinks — and an obs.Source, so analyses consume live runs and stored
// datasets through the same interface.
type Result struct {
	obs.Data
	Config Config
	World  *synthnet.World
}

// weekendOf reports whether day d falls on a weekend; day 0 is a
// Thursday (2015-01-01 was a Thursday), so d%7 ∈ {2,3} are Sat/Sun.
func weekendOf(d int) bool {
	w := d % 7
	return w == 2 || w == 3
}
