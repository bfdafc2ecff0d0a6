// Package nmostv is a static timing analyzer for nMOS VLSI transistor
// netlists, reproducing the TV timing verifier of Jouppi (DAC 1983): it
// reads transistor-level circuits (Berkeley .sim dialect or constructed
// in-process), partitions them into channel-connected stages, infers
// signal-flow direction through pass transistors, builds RC timing arcs,
// and performs value-independent case analysis of one two-phase clock
// cycle — producing per-node settle times, latch/precharge/output checks
// with slacks, critical paths, and minimum-cycle-time searches.
//
// Typical use:
//
//	d, err := nmostv.LoadSimFile("chip.sim", nmostv.DefaultParams())
//	res, err := d.Analyze(nmostv.TwoPhase(100, 0.8), nmostv.AnalyzeOptions{})
//	fmt.Println(nmostv.FormatPath(res.CriticalPath()))
//
// The heavy lifting lives in the internal packages (netlist, stage, flow,
// rc, delay, clocks, core, sim, gen); this package is the stable facade
// that ties the pipeline together and re-exports the types a user needs.
package nmostv

import (
	"context"
	"fmt"
	"io"
	"os"

	"nmostv/internal/charge"
	"nmostv/internal/clocks"
	"nmostv/internal/core"
	"nmostv/internal/delay"
	"nmostv/internal/erc"
	"nmostv/internal/flow"
	"nmostv/internal/netlist"
	"nmostv/internal/obs"
	"nmostv/internal/pipeline"
	"nmostv/internal/simfile"
	"nmostv/internal/slack"
	"nmostv/internal/stage"
	"nmostv/internal/tech"
)

// Re-exported types: the facade's vocabulary is the internal packages'.
type (
	// Netlist is a transistor-level circuit.
	Netlist = netlist.Netlist
	// Node is an electrical net.
	Node = netlist.Node
	// Transistor is one nMOS device.
	Transistor = netlist.Transistor
	// Params is the process description.
	Params = tech.Params
	// Schedule is a two-phase clock cycle.
	Schedule = clocks.Schedule
	// Result is a completed timing analysis.
	Result = core.Result
	// Check is one verification finding.
	Check = core.Check
	// Step is one hop of a reported path.
	Step = core.Step
	// AnalyzeOptions tunes the analysis.
	AnalyzeOptions = core.Options
	// FlowSummary reports the pass-transistor orientation statistics.
	FlowSummary = flow.Summary
	// Stats summarizes a netlist.
	Stats = netlist.Stats
	// Polarity is a transition direction (Rise or Fall).
	Polarity = core.Polarity
	// ERCFinding is one electrical-rule finding (ratio rule etc.).
	ERCFinding = erc.Finding
	// ChargeFinding is one charge-sharing exposure report.
	ChargeFinding = charge.Finding
	// Corner is a named PVT corner (uniform R/C derates).
	Corner = tech.Corner
	// Required holds per-node required times and slacks (backward pass).
	Required = core.Required
	// SlackEntry is one row of a slack-ordered critical ranking.
	SlackEntry = core.SlackEntry
	// CornerSweep is a completed multi-corner analysis.
	CornerSweep = slack.Sweep
	// CornerResult is one corner's analysis within a sweep.
	CornerResult = slack.CornerResult
)

// Transition polarities.
const (
	Rise = core.Rise
	Fall = core.Fall
)

// DefaultParams returns the canonical 4µm nMOS process.
func DefaultParams() Params { return tech.Default() }

// TwoPhase builds a symmetric two-phase schedule with the given period
// (ns) and per-phase active fraction.
func TwoPhase(period, activeFrac float64) Schedule {
	return clocks.TwoPhase(period, activeFrac)
}

// FormatPath renders a critical path listing.
func FormatPath(steps []Step) string { return core.FormatPath(steps) }

// ParseCorners parses a comma-separated corner spec — builtin names
// (slow, typ, fast) or name:rscale:cscale triples.
func ParseCorners(spec string) ([]Corner, error) { return tech.ParseCorners(spec) }

// Corners returns the builtin corner set: slow, typ, fast.
func Corners() []Corner { return tech.Corners() }

// Design is a prepared circuit: staged, flow-analyzed, with timing arcs
// built — everything Analyze needs, reusable across schedules.
type Design struct {
	// NL is the underlying netlist.
	NL *Netlist
	// Params is the process used for the RC models.
	Params Params
	// Stages is the channel-connected partition.
	Stages *stage.Result
	// Flow summarizes pass-transistor orientation.
	Flow FlowSummary
	// Model holds the timing arcs.
	Model *delay.Model
}

// PrepareOptions tunes Prepare.
type PrepareOptions struct {
	// DisableFlow skips signal-flow inference, timing every pass device
	// bidirectionally (the pessimistic ablation).
	DisableFlow bool
	// MaxPaths and MaxDepth bound GND-path enumeration (see
	// delay.Options); zero means defaults.
	MaxPaths, MaxDepth int
	// SetHigh and SetLow hold named nodes at constants — TV case
	// analysis for false-path elimination. Pass the same lists in
	// AnalyzeOptions so the analyzer treats them as static.
	SetHigh, SetLow []string
	// Workers bounds the goroutines used to build the delay model: 0
	// (the default) uses one per CPU, 1 forces a serial build. The model
	// is bit-identical at every worker count. Set AnalyzeOptions.Workers
	// likewise to control the propagation passes.
	Workers int
	// Obs receives phase spans (stage-partition, flow, delay-build) and
	// metrics; pass the same handle in AnalyzeOptions.Obs to cover the
	// propagation passes too. Nil disables instrumentation.
	Obs *obs.Obs
}

// Prepare runs the pre-analysis pipeline on a finalized netlist.
func Prepare(nl *Netlist, p Params, opt PrepareOptions) *Design {
	pl := pipeline.Pipeline{Params: p, NoFlow: opt.DisableFlow, Delay: delay.Options{
		MaxPaths: opt.MaxPaths,
		MaxDepth: opt.MaxDepth,
		SetHigh:  opt.SetHigh,
		SetLow:   opt.SetLow,
		Workers:  opt.Workers,
	}}
	st, err := pl.Prepare(context.Background(), opt.Obs, nl)
	if err != nil {
		// Only an armed fault point fails an uncanceled build.
		panic(fmt.Sprintf("nmostv: prepare: %v", err))
	}
	return &Design{NL: nl, Params: p, Stages: st.Stages, Flow: st.Flow, Model: st.Model}
}

// AnalyzeCase is the one-call form of TV case analysis: it re-prepares the
// design with the given constants and analyzes under them.
func AnalyzeCase(nl *Netlist, p Params, sched Schedule, setHigh, setLow []string) (*Result, error) {
	d := Prepare(nl, p, PrepareOptions{SetHigh: setHigh, SetLow: setLow})
	return d.Analyze(sched, AnalyzeOptions{SetHigh: setHigh, SetLow: setLow})
}

// Analyze runs case analysis against a clock schedule.
func (d *Design) Analyze(sched Schedule, opt AnalyzeOptions) (*Result, error) {
	return core.Analyze(context.Background(), d.NL, d.Model, sched, opt)
}

// AnalyzeContext is Analyze with cancellation: the wavefront walk polls
// the context and an aborted analysis returns its error with no result.
func (d *Design) AnalyzeContext(ctx context.Context, sched Schedule, opt AnalyzeOptions) (*Result, error) {
	return core.Analyze(ctx, d.NL, d.Model, sched, opt)
}

// AnalyzeCorners extends base, an analysis of the design under opt, to
// PVT corners: base is the typical corner, and every other corner
// rescales the design's arcs and is analyzed against base's schedule
// over its propagation plan. Each corner then gets its backward pass, and the
// per-corner slacks merge into a worst-slack-per-node view. An empty
// corner list analyzes just the typical corner.
func (d *Design) AnalyzeCorners(base *Result, corners []Corner, opt AnalyzeOptions) (*CornerSweep, error) {
	return slack.AnalyzeFrom(context.Background(), base, corners, opt)
}

// MinPeriod searches for the smallest passing clock period in [lo, hi] ns
// (tolerance tol), preserving base's phase proportions.
func (d *Design) MinPeriod(base Schedule, opt AnalyzeOptions, lo, hi, tol float64) (float64, *Result, error) {
	return core.MinPeriod(context.Background(), d.NL, d.Model, base, opt, lo, hi, tol)
}

// LoadSim parses a .sim stream and prepares it with default options.
func LoadSim(r io.Reader, name string, p Params) (*Design, error) {
	nl, err := simfile.Read(r, name)
	if err != nil {
		return nil, err
	}
	return Prepare(nl, p, PrepareOptions{}), nil
}

// LoadSimFile parses a .sim file and prepares it with default options.
func LoadSimFile(path string, p Params) (*Design, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSim(f, path, p)
}

// WriteSim writes a netlist in the .sim dialect.
func WriteSim(w io.Writer, nl *Netlist) error { return simfile.Write(w, nl) }

// CheckERC runs the electrical rule checks (pullup/pulldown ratio rule,
// stuck-high outputs, floating gates) over the design's netlist.
func (d *Design) CheckERC() []ERCFinding {
	return erc.Check(d.NL, d.Params, erc.Options{})
}

// CheckCharge runs the charge-sharing analysis over every dynamic node.
func (d *Design) CheckCharge() []ChargeFinding {
	return charge.Analyze(d.NL, d.Params, charge.Options{})
}

// ChargeHazards filters the failing charge findings.
func ChargeHazards(findings []ChargeFinding) []ChargeFinding {
	return charge.Hazards(findings)
}
