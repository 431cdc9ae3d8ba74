// Command profreport reads what the profiling harness and the black
// box write: it renders single profiles, summarizes a profile
// directory phase by phase (CPU samples split by their pprof phase
// label), diffs two recorded runs (per-phase CPU deltas and regressed
// functions), and turns a postmortem bundle into a human-readable
// report — all on the stdlib pprof/manifest readers in internal/obs/prof
// and internal/obs/blackbox, no external tooling required.
//
//	profreport -prof FILE [-n 15] [-value cpu]   top functions of one profile
//	profreport -dir DIR [-n 15]                  per-phase report of a profile dir
//	profreport -dir NEW -against OLD [-n 15]     diff two profile dirs
//	profreport -bundle DIR [-n 15]               render a postmortem bundle
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		profPath = flag.String("prof", "", "print top functions of one pprof profile")
		dir      = flag.String("dir", "", "profile directory to report on")
		against  = flag.String("against", "", "baseline profile directory to diff -dir against")
		bundle   = flag.String("bundle", "", "postmortem bundle directory to render")
		topN     = flag.Int("n", 15, "rows per top-functions table")
		value    = flag.String("value", "cpu", "sample value dimension (falls back to the profile's last)")
	)
	flag.Parse()

	modes := 0
	for _, set := range []bool{*profPath != "", *dir != "", *bundle != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 || (*against != "" && *dir == "") {
		fmt.Fprintln(os.Stderr, "profreport: exactly one of -prof, -dir, -bundle is required (-against needs -dir)")
		flag.Usage()
		return 2
	}

	var err error
	switch {
	case *profPath != "":
		err = reportProfile(os.Stdout, *profPath, *value, *topN)
	case *dir != "" && *against != "":
		err = diffDirs(os.Stdout, *against, *dir, *topN)
	case *dir != "":
		err = reportDir(os.Stdout, *dir, *topN)
	default:
		err = reportBundle(os.Stdout, *bundle, *topN)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "profreport:", err)
		return 1
	}
	return 0
}
