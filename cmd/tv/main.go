// Command tv is the timing analyzer CLI: it reads a transistor netlist in
// the .sim dialect, runs two-phase case analysis, and prints the
// verification report — netlist statistics, flow-analysis summary, checks
// with slacks, the critical path, and (optionally) a minimum-cycle-time
// search.
//
// Usage:
//
//	tv [flags] design.sim
//
//	-period ns      clock period (default 1000)
//	-active frac    per-phase active fraction (default 0.8)
//	-minperiod      binary-search the minimum passing period
//	-noflow         disable signal-flow analysis (pessimistic)
//	-nodes          print per-node settle times
//	-checks n       print the n worst checks (default 10)
//	-slack n        print the n worst-slack transitions (default 10,
//	                0 disables); slack = required − arrival per node
//	-paths k        print the k worst ranked paths with full hop
//	                sequences, streamed lazily from the path generator
//	                (0 disables)
//	-corners list   multi-corner (MCMM) sweep: comma-separated builtin
//	                names (slow, typ, fast) or name:rscale:cscale
//	                derates; prints per-corner summaries and the merged
//	                worst-slack-per-node report
//	-input name=t   input arrival override, repeatable
//	-sethigh a,b    nodes held high for case analysis
//	-setlow a,b     nodes held low for case analysis; a name that is no
//	                node of the design, here or in -input, is a usage
//	                error (exit 2)
//	-erc            run electrical rule checks (ratio rule)
//	-charge         run charge-sharing analysis on dynamic nodes
//	-j n            worker goroutines for model build and propagation
//	                (0 = one per CPU, 1 = serial; results are identical)
//	-trace f.json   write a Chrome trace-event file of the analysis
//	                phases (open in ui.perfetto.dev or chrome://tracing)
//	-cpuprofile f   write a CPU profile (inspect with go tool pprof)
//	-memprofile f   write a heap profile taken after analysis
//	-version        print the version and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"

	"nmostv"
	"nmostv/internal/obs"
	"nmostv/internal/paths"
	"nmostv/internal/report"
	"nmostv/internal/simfile"
)

// version is stamped by the build:
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/tv
var version = "dev"

type inputTimes map[string]float64

func (it inputTimes) String() string { return fmt.Sprint(map[string]float64(it)) }

func (it inputTimes) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected name=time, got %q", s)
	}
	t, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	it[name] = t
	return nil
}

func main() {
	period := flag.Float64("period", 1000, "clock period in ns")
	active := flag.Float64("active", 0.8, "per-phase active fraction")
	minPeriod := flag.Bool("minperiod", false, "search the minimum passing period")
	noFlow := flag.Bool("noflow", false, "disable signal-flow analysis")
	nodes := flag.Bool("nodes", false, "print per-node settle times")
	nChecks := flag.Int("checks", 10, "number of worst checks to print")
	nSlack := flag.Int("slack", 10, "number of worst-slack transitions to print (0 = none)")
	nPaths := flag.Int("paths", 0, "number of worst ranked paths to print (0 = none)")
	cornerSpec := flag.String("corners", "", "comma-separated PVT corners for a multi-corner sweep")
	runERC := flag.Bool("erc", false, "run electrical rule checks")
	runCharge := flag.Bool("charge", false, "run charge-sharing analysis")
	setHigh := flag.String("sethigh", "", "comma-separated nodes held high (case analysis)")
	setLow := flag.String("setlow", "", "comma-separated nodes held low (case analysis)")
	jobs := flag.Int("j", 0, "worker goroutines (0 = one per CPU, 1 = serial)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the analysis phases")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a post-analysis heap profile to this file")
	showVersion := flag.Bool("version", false, "print the version and exit")
	inputs := inputTimes{}
	flag.Var(inputs, "input", "input arrival override name=ns (repeatable)")
	flag.Parse()

	if *showVersion {
		fmt.Printf("tv %s %s\n", version, runtime.Version())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tv [flags] design.sim")
		flag.Usage()
		os.Exit(2)
	}

	// os.Exit skips deferred calls, so profile/trace finalization is an
	// explicit function invoked on every exit path after this point.
	var tvObs *obs.Obs
	if *tracePath != "" {
		tvObs = &obs.Obs{Tr: obs.NewTracer()}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	finish := func() {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			if err := tvObs.Tr.WriteChrome(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
	}

	p := nmostv.DefaultParams()
	sp := tvObs.Span("parse")
	sf, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	nl, err := simfile.Read(sf, flag.Arg(0))
	sf.Close()
	sp.End()
	if err != nil {
		fatal(err)
	}
	prepOpt := nmostv.PrepareOptions{
		DisableFlow: *noFlow,
		SetHigh:     splitList(*setHigh),
		SetLow:      splitList(*setLow),
		Workers:     *jobs,
		Obs:         tvObs,
	}
	if unknown := unknownNodes(nl, prepOpt.SetHigh, prepOpt.SetLow, inputs); len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "tv: no such node: %s\n", strings.Join(unknown, ", "))
		os.Exit(2)
	}
	d := nmostv.Prepare(nl, p, prepOpt)
	if len(prepOpt.SetHigh) > 0 || len(prepOpt.SetLow) > 0 {
		fmt.Printf("case analysis: high=%v low=%v\n", prepOpt.SetHigh, prepOpt.SetLow)
	}

	stats := d.NL.ComputeStats()
	fmt.Printf("circuit %s: %d transistors (%d enh, %d dep), %d nodes, %d stages, %d timing arcs\n",
		d.NL.Name, stats.Transistors, stats.Enh, stats.Dep, stats.Nodes,
		len(d.Stages.Stages), d.Model.Edges.Len())
	fmt.Printf("process: %s\n", p)
	if !*noFlow {
		fmt.Printf("%s\n", d.Flow)
	}
	if issues := d.NL.Validate(); len(issues) > 0 {
		fmt.Printf("netlist findings (%d):\n", len(issues))
		for i, is := range issues {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(issues)-10)
				break
			}
			fmt.Printf("  %s\n", is)
		}
	}
	fmt.Println()

	opt := nmostv.AnalyzeOptions{
		InputTime: inputs,
		SetHigh:   prepOpt.SetHigh,
		SetLow:    prepOpt.SetLow,
		Workers:   *jobs,
		Obs:       tvObs,
	}
	sched := nmostv.TwoPhase(*period, *active)
	res, err := d.Analyze(sched, opt)
	if err != nil {
		fatal(err)
	}

	if *minPeriod {
		T, resMin, err := d.MinPeriod(sched, opt, *period/1000, *period, *period/10000)
		if err != nil {
			fmt.Printf("minimum period search: %v\n", err)
		} else {
			fmt.Printf("minimum passing period: %.4g ns (%.4g MHz)\n\n", T, 1000/T)
			res = resMin
		}
	}

	fmt.Printf("schedule: %s\n", res.Sched)
	worstNode, worstT := res.MaxSettle()
	if worstNode != nil {
		fmt.Printf("latest settling node: %s @ %.4g ns\n", worstNode, worstT)
	}
	if slack, ok := res.MinSlack(); ok {
		fmt.Printf("worst slack: %.4g ns\n", slack)
	}
	if tol, ok := res.SkewTolerance(); ok {
		fmt.Printf("clock skew tolerance: %.4g ns\n", tol)
	}
	viol := res.Violations()
	fmt.Printf("checks: %d total, %d violations\n\n", len(res.Checks), len(viol))

	if *nChecks > 0 && len(res.Checks) > 0 {
		fmt.Printf("worst %d checks:\n", min(*nChecks, len(res.Checks)))
		for i, c := range res.Checks {
			if i >= *nChecks {
				break
			}
			fmt.Printf("  %s\n", c)
		}
		fmt.Println()
	}

	fmt.Println("critical path:")
	fmt.Print(nmostv.FormatPath(res.CriticalPath()))

	if *nSlack > 0 {
		req, err := res.Required(context.Background(), opt)
		if err != nil {
			fatal(err)
		}
		rows := slackRows(res.SlackRanking(req, *nSlack), "")
		if len(rows) > 0 {
			fmt.Println()
			fmt.Print(report.SlackTable("worst slack (required − arrival):", rows).String())
		}
	}

	if *nPaths > 0 {
		printPaths(res, *nPaths)
	}

	cornerFail := false
	if *cornerSpec != "" {
		corners, err := nmostv.ParseCorners(*cornerSpec)
		if err != nil {
			fatal(err)
		}
		sw, err := d.AnalyzeCorners(res, corners, opt)
		if err != nil {
			fatal(err)
		}
		cornerFail = printCorners(sw, *nSlack)
	}

	ruleFail := false
	if *runERC {
		fmt.Println()
		findings := d.CheckERC()
		fmt.Printf("electrical rule checks: %d findings\n", len(findings))
		for _, f := range findings {
			fmt.Printf("  %s\n", f)
			ruleFail = true
		}
	}
	if *runCharge {
		fmt.Println()
		findings := d.CheckCharge()
		hazards := nmostv.ChargeHazards(findings)
		fmt.Printf("charge-sharing analysis: %d dynamic nodes, %d hazards\n",
			len(findings), len(hazards))
		for i, f := range findings {
			if i >= *nChecks {
				fmt.Printf("  ... %d more\n", len(findings)-*nChecks)
				break
			}
			fmt.Printf("  %s\n", f)
		}
		if len(hazards) > 0 {
			ruleFail = true
		}
	}

	if *nodes {
		fmt.Println()
		printSettles(res)
	}

	finish()
	if len(viol) > 0 || ruleFail || cornerFail {
		os.Exit(1)
	}
}

// slackRows converts a core slack ranking to report rows, tagging each
// with the given corner name ("" for single-corner output).
func slackRows(ranked []nmostv.SlackEntry, corner string) []report.SlackRow {
	rows := make([]report.SlackRow, len(ranked))
	for i, e := range ranked {
		rows[i] = report.SlackRow{
			Node: e.Node.Name, Corner: corner, Pol: e.Pol.String(),
			Arrival: e.Arrival, Required: e.Required, Slack: e.Slack,
		}
	}
	return rows
}

// printPaths streams the k worst ranked paths from the lazy generator:
// a header line per path (endpoint, check kind, arrival/required/slack),
// then the hop sequence source-first with per-hop delays and the
// representative device that drives each arc.
func printPaths(res *nmostv.Result, k int) {
	fmt.Println()
	fmt.Printf("worst %d paths:\n", k)
	g := paths.New(res)
	printed := 0
	for ; printed < k; printed++ {
		p, ok := g.Next()
		if !ok {
			break
		}
		wrap := ""
		if p.Wrapped {
			wrap = " wrapped"
		}
		fmt.Printf("#%d  %s %s (%s φ%d%s)  arrival %.4g  required %.4g  slack %s\n",
			p.Rank, res.NL.Nodes[p.Node].Name, p.Pol, p.Kind, p.Phase, wrap,
			p.Arrival, p.Required, report.SignedSlack(p.Slack))
		for _, s := range p.Steps {
			via := ""
			if s.Arc >= 0 {
				if tr := res.NL.TransByID(res.Model.Arc(s.Arc).Via); tr != nil && tr.Gate != nil {
					via = "  via " + tr.Gate.Name
				}
			}
			clamp := ""
			if s.Clamped {
				clamp = "  (clock-clamped)"
			}
			fmt.Printf("    %-20s %-4s @ %-10.4g +%.4g%s%s\n",
				res.NL.Nodes[s.Node].Name, s.Pol, s.Arrival, s.Delay, via, clamp)
		}
	}
	if printed == 0 {
		fmt.Println("  (no ranked paths)")
	}
}

// printCorners renders the multi-corner section: one summary line per
// corner, then the merged worst-slack-per-node ranking with the corner
// that set each row. Returns whether any corner has violations.
func printCorners(sw *nmostv.CornerSweep, nSlack int) (fail bool) {
	fmt.Println()
	sum := report.NewTable("corner summary:", "corner", "r-scale", "c-scale", "worst slack (ns)", "violations")
	for _, cr := range sw.Corners {
		worst := "+inf"
		if sl, ok := cr.Res.MinSlack(); ok {
			worst = report.SignedSlack(sl)
		}
		viol := len(cr.Res.Violations())
		if viol > 0 {
			fail = true
		}
		sum.Add(cr.Corner.Name, cr.Corner.RScale, cr.Corner.CScale, worst, viol)
	}
	fmt.Print(sum.String())

	if nSlack > 0 {
		var rows []report.SlackRow
		for _, e := range sw.Ranking(nSlack) {
			rows = append(rows, report.SlackRow{
				Node: e.Node.Name, Corner: e.Corner, Pol: e.Pol.String(),
				Arrival: e.Arrival, Required: e.Required, Slack: e.Slack,
			})
		}
		if len(rows) > 0 {
			fmt.Println()
			fmt.Print(report.SlackTable("merged worst slack per node (all corners):", rows).String())
		}
	}
	return fail
}

func printSettles(res *nmostv.Result) {
	tab := report.NewTable("node settle times", "node", "rise (ns)", "fall (ns)", "settle (ns)")
	type row struct {
		name             string
		rise, fall, both float64
	}
	var rows []row
	for _, n := range res.NL.Nodes {
		if n.IsSupply() || n.IsClock() {
			continue
		}
		s := res.Settle(n)
		if math.IsInf(s, -1) {
			continue
		}
		rows = append(rows, row{n.Name, res.RiseAt.At(n.Index), res.FallAt.At(n.Index), s})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].both > rows[j].both })
	for _, r := range rows {
		tab.Add(r.name, fmtArr(r.rise), fmtArr(r.fall), fmtArr(r.both))
	}
	fmt.Print(tab.String())
}

func fmtArr(v float64) string {
	if math.IsInf(v, -1) {
		return "static"
	}
	return fmt.Sprintf("%.4g", v)
}

// unknownNodes lists the names given to -sethigh, -setlow and -input
// that are no node's own name in nl (netlist.Named, the rule the analysis
// resolves them by, so an alias such as "VDD" is unknown too), each with
// its flag ("-sethigh x"), in flag order and then by name.
func unknownNodes(nl *nmostv.Netlist, high, low []string, inputs inputTimes) []string {
	var out []string
	check := func(flag string, names []string) {
		sort.Strings(names)
		for i, name := range names {
			if nl.Named(name) == nil && (i == 0 || names[i-1] != name) {
				out = append(out, flag+" "+name)
			}
		}
	}
	check("-sethigh", slices.Clone(high))
	check("-setlow", slices.Clone(low))
	check("-input", slices.Collect(maps.Keys(inputs)))
	return out
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tv:", err)
	os.Exit(1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
