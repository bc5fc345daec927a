// Command gcxlint runs the repo's architectural lint passes
// (internal/lint): eventboundary, ctxpoll, obsnames, hotbytes and
// unusedexport. It is wired into `make check` and CI.
//
// Usage:
//
//	gcxlint [-passes eventboundary,ctxpoll] [dir]
//
// dir defaults to the current module root (the nearest parent directory
// with a go.mod). A `./...` argument is accepted as an alias for the
// module root, so the command drops into the usual vet invocation
// shape. Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gcx/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcxlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passNames := fs.String("passes", "", "comma-separated pass names to run (default all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	passes := lint.All
	if *passNames != "" {
		passes = nil
		for _, name := range strings.Split(*passNames, ",") {
			a := lint.Lookup(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "gcxlint: unknown pass %q\n", name)
				return 2
			}
			passes = append(passes, a)
		}
	}

	root := ""
	switch fs.NArg() {
	case 0:
	case 1:
		if arg := fs.Arg(0); arg != "./..." && arg != "..." {
			root = arg
		}
	default:
		fmt.Fprintln(stderr, "gcxlint: at most one directory argument")
		return 2
	}
	if root == "" {
		var err error
		if root, err = moduleRoot(); err != nil {
			fmt.Fprintln(stderr, "gcxlint:", err)
			return 2
		}
	}

	findings, err := lint.Run(root, passes)
	if err != nil {
		fmt.Fprintln(stderr, "gcxlint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
