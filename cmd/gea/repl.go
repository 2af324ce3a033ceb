package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"gea"
)

// cmdRepl runs the interactive command loop — the CLI analogue of keeping
// a GEA GUI session open across many operations. One failing or panicking
// command must not take the session (and its unsaved state) down with it.
func cmdRepl(args []string) error {
	fs := flag.NewFlagSet("repl", flag.ExitOnError)
	in := fs.String("in", "", "corpus directory to open at startup")
	session := fs.String("session", "", "session directory to load at startup")
	fs.Parse(args)

	// Ctrl-C cancels the in-flight operator's context instead of killing
	// the process: the session — and any unsaved state — stays alive.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)

	r := &repl{out: os.Stdout, errw: os.Stderr, sigc: sigc}
	if *in != "" {
		if err := r.dispatch([]string{"open", *in}); err != nil {
			return err
		}
	}
	if *session != "" {
		if err := r.dispatch([]string{"load", *session}); err != nil {
			return err
		}
	}
	return r.run(os.Stdin)
}

type repl struct {
	out  io.Writer
	errw io.Writer
	sys  *gea.System
	// sigc delivers SIGINT while a command runs; nil (as in tests) means
	// no signal wiring.
	sigc chan os.Signal
	// limits and deadline bound governed commands, set by "limit".
	limits   gea.ExecLimits
	deadline time.Duration
	// trace, when set by "trace on", collects spans and metrics from
	// every governed command; "stats" and "explain last" read it.
	trace *gea.ObsCollector
}

// opCtx builds the context for one governed command: the configured
// deadline is applied, and while the command runs a SIGINT cancels the
// context. The returned stop function must be called when the command
// finishes to detach the signal watcher.
func (r *repl) opCtx() (context.Context, func()) {
	ctx := context.Background()
	if r.trace != nil {
		// Tracing on: governed operators record spans into the session
		// collector, and the checkpoint hook meters poll cadence.
		ctx = gea.WithObsCollector(ctx, r.trace)
		ctx = gea.WithExecHook(ctx, r.trace.ExecHook())
	}
	cancel := func() {}
	if r.deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, r.deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	if r.sigc == nil {
		return ctx, cancel
	}
	// A Ctrl-C that arrived just before the command started counts: drain
	// it synchronously so the operator is cancelled at its first checkpoint.
	select {
	case <-r.sigc:
		fmt.Fprintln(r.errw, "interrupt: cancelling the running operation (session kept)")
		cancel()
		return ctx, cancel
	default:
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-r.sigc:
			fmt.Fprintln(r.errw, "\ninterrupt: cancelling the running operation (session kept)")
			cancel()
		case <-done:
		}
	}()
	return ctx, func() {
		close(done)
		cancel()
	}
}

// run is the REPL command loop. Each line executes under panic recovery:
// a command that panics prints the failure and the loop — with the live
// session and all its unsaved state — continues.
func (r *repl) run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	fmt.Fprintln(r.out, `gea repl — "help" lists commands, "quit" exits`)
	for {
		fmt.Fprint(r.out, "gea> ")
		if !sc.Scan() {
			fmt.Fprintln(r.out)
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "quit" || fields[0] == "exit" {
			return nil
		}
		if err := r.safeDispatch(fields); err != nil {
			fmt.Fprintf(r.errw, "error: %v\n", err)
		}
	}
}

// safeDispatch runs one command, converting a panic into an error so the
// loop survives.
func (r *repl) safeDispatch(fields []string) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("panic recovered: %v (session kept alive)\n%s", rec, debug.Stack())
		}
	}()
	return r.dispatch(fields)
}

func (r *repl) needSession() (*gea.System, error) {
	if r.sys == nil {
		return nil, fmt.Errorf(`no session: "gen", "open DIR" or "load DIR" first`)
	}
	return r.sys, nil
}

func (r *repl) dispatch(fields []string) error {
	cmd, args := fields[0], fields[1:]
	arg := func(i int) string {
		if i < len(args) {
			return args[i]
		}
		return ""
	}
	switch cmd {
	case "help":
		fmt.Fprint(r.out, `commands:
  gen                generate the small synthetic corpus and start a session
  open DIR           start a session from the corpus in DIR
  load DIR           load a saved session (salvages damaged artifacts)
  save DIR           save the session (atomic, checksummed)
  report             show what the last load had to salvage
  info               session dimensions and tissue types
  mine TISSUE        dataset + metadata + pure-fascicle search for a tissue
                     (Ctrl-C cancels the search, not the session)
  limit budget N     cap mining work at N units (partial results flagged)
  limit deadline D   bound mining wall time (e.g. 30s, 2m)
  limit workers N    evaluate sharded scans on N workers (same results)
  limit off          remove all limits; bare "limit" shows current
  trace on|off       record spans + metrics for governed commands
  stats              print the metrics snapshot collected so far
  explain last       print the span tree of the last governed command
  tree               print the lineage tree
  quit               exit
`)
		return nil
	case "gen":
		res, err := gea.Generate(gea.SmallConfig())
		if err != nil {
			return err
		}
		sys, err := gea.NewSystem(res.Corpus, gea.SystemOptions{User: "repl"})
		if err != nil {
			return err
		}
		r.sys = sys
		fmt.Fprintf(r.out, "session over %d libraries x %d tags\n", sys.Data.NumLibraries(), sys.Data.NumTags())
		return nil
	case "open":
		if arg(0) == "" {
			return fmt.Errorf("usage: open DIR")
		}
		corpus, err := gea.LoadCorpus(arg(0))
		if err != nil {
			return err
		}
		sys, err := gea.NewSystem(corpus, gea.SystemOptions{User: "repl"})
		if err != nil {
			return err
		}
		r.sys = sys
		fmt.Fprintf(r.out, "session over %d libraries x %d tags\n", sys.Data.NumLibraries(), sys.Data.NumTags())
		return nil
	case "load":
		if arg(0) == "" {
			return fmt.Errorf("usage: load DIR")
		}
		sys, err := gea.LoadSession(arg(0), nil, 0)
		if err != nil {
			return err
		}
		r.sys = sys
		if sys.LoadReport != nil && !sys.LoadReport.OK() {
			fmt.Fprint(r.errw, sys.LoadReport)
		}
		fmt.Fprintf(r.out, "loaded session of user %q (%d lineage nodes)\n", sys.User, len(sys.Lineage.Names()))
		return nil
	case "save":
		sys, err := r.needSession()
		if err != nil {
			return err
		}
		if arg(0) == "" {
			return fmt.Errorf("usage: save DIR")
		}
		if err := sys.SaveSession(arg(0)); err != nil {
			return err
		}
		fmt.Fprintf(r.out, "session saved to %s\n", arg(0))
		return nil
	case "report":
		sys, err := r.needSession()
		if err != nil {
			return err
		}
		if sys.LoadReport == nil {
			fmt.Fprintln(r.out, "session was not loaded from disk")
			return nil
		}
		fmt.Fprint(r.out, sys.LoadReport)
		if sys.LoadReport.OK() {
			fmt.Fprintln(r.out)
		}
		return nil
	case "info":
		sys, err := r.needSession()
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "user %q, %d libraries x %d tags\n", sys.User, sys.Data.NumLibraries(), sys.Data.NumTags())
		for tissue, libs := range sys.TissueTypes() {
			fmt.Fprintf(r.out, "  %-10s %d libraries\n", tissue, len(libs))
		}
		return nil
	case "mine":
		sys, err := r.needSession()
		if err != nil {
			return err
		}
		tissue := arg(0)
		if tissue == "" {
			return fmt.Errorf("usage: mine TISSUE")
		}
		// Re-mining a tissue (e.g. after an interrupted or budget-stopped
		// run) reuses the existing dataset.
		if _, err := sys.CreateTissueDataset(tissue); err != nil {
			var exists gea.ErrExists
			if !errors.As(err, &exists) {
				return err
			}
		}
		if err := sys.GenerateMetadata(tissue, 10); err != nil {
			return err
		}
		ctx, stop := r.opCtx()
		defer stop()
		pure, tr, err := sys.FindPureFascicleCtx(ctx, tissue, gea.PropCancer, 3, gea.LatticeAlgorithm, r.limits)
		if err != nil {
			if gea.IsCancellation(err) {
				fmt.Fprintf(r.out, "mine %s cancelled after %d work units; session kept\n", tissue, tr.Units)
				return nil
			}
			if gea.IsBudget(err) {
				fmt.Fprintf(r.out, "mine %s stopped by the work budget after %d units (no pure fascicle yet); raise it with \"limit budget N\"\n", tissue, tr.Units)
				return nil
			}
			return err
		}
		if tr.Partial {
			fmt.Fprintf(r.out, "note: the search hit its work budget; the result may not be the tightest fascicle\n")
		}
		fmt.Fprintf(r.out, "pure cancerous fascicle: %s\n", pure)
		return nil
	case "limit":
		switch arg(0) {
		case "":
			if r.limits.Budget == 0 && r.deadline == 0 && r.limits.Workers <= 1 {
				fmt.Fprintln(r.out, "no limits set")
			} else {
				workers := r.limits.Workers
				if workers < 1 {
					workers = 1
				}
				fmt.Fprintf(r.out, "budget %d units, deadline %v, workers %d\n", r.limits.Budget, r.deadline, workers)
			}
			return nil
		case "off":
			r.limits = gea.ExecLimits{}
			r.deadline = 0
			fmt.Fprintln(r.out, "limits cleared")
			return nil
		case "budget":
			n, err := strconv.ParseInt(arg(1), 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("usage: limit budget N (a nonnegative integer)")
			}
			r.limits.Budget = n
			fmt.Fprintf(r.out, "work budget set to %d units\n", n)
			return nil
		case "deadline":
			d, err := time.ParseDuration(arg(1))
			if err != nil || d <= 0 {
				return fmt.Errorf("usage: limit deadline DUR (e.g. 30s)")
			}
			r.deadline = d
			fmt.Fprintf(r.out, "deadline set to %v\n", d)
			return nil
		case "workers":
			n, err := strconv.ParseInt(arg(1), 10, 32)
			if err != nil || n < 1 || n > 1024 {
				return fmt.Errorf("usage: limit workers N (an integer in [1, 1024]; results are identical at any setting)")
			}
			r.limits.Workers = int(n)
			fmt.Fprintf(r.out, "worker count set to %d\n", n)
			return nil
		default:
			return fmt.Errorf(`usage: limit [budget N | deadline DUR | workers N | off]`)
		}
	case "trace":
		switch arg(0) {
		case "on":
			if r.trace == nil {
				r.trace = gea.NewObsCollector()
			}
			fmt.Fprintln(r.out, "tracing on: governed commands now record spans and metrics")
			return nil
		case "off":
			r.trace = nil
			fmt.Fprintln(r.out, "tracing off (collected spans and metrics discarded)")
			return nil
		default:
			return fmt.Errorf("usage: trace on|off")
		}
	case "stats":
		if r.trace == nil {
			return fmt.Errorf(`tracing is off: "trace on" first`)
		}
		fmt.Fprint(r.out, r.trace.Metrics.Snapshot().String())
		return nil
	case "explain":
		if arg(0) != "last" {
			return fmt.Errorf("usage: explain last")
		}
		if r.trace == nil {
			return fmt.Errorf(`tracing is off: "trace on" first`)
		}
		root := r.trace.LastRoot()
		if root == nil {
			return fmt.Errorf("no governed command has completed since tracing was enabled")
		}
		fmt.Fprint(r.out, root.Tree())
		return nil
	case "tree":
		sys, err := r.needSession()
		if err != nil {
			return err
		}
		fmt.Fprint(r.out, sys.Lineage.Tree())
		return nil
	case "debug-panic":
		// Deliberate crash used to exercise the loop's panic recovery.
		panic("debug-panic command")
	default:
		return fmt.Errorf("unknown command %q (try \"help\")", cmd)
	}
}
