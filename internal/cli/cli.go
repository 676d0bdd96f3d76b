// Package cli holds the one exit policy the repository's commands
// share: each command is a run(args, stdout, stderr) error function,
// and Main turns its error into an exit status.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// ErrUsage marks a command line that could not be understood (exit
// status 2, like the flag package's own failures). Commands wrap it
// with what was wrong.
var ErrUsage = errors.New("usage")

// Main runs run on the process's arguments and exits: 0 on success or
// flag.ErrHelp, 2 on ErrUsage, 1 on any other error, which is printed
// to stderr.
func Main(run func(args []string, stdout, stderr io.Writer) error) {
	os.Exit(exitCode(run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// exitCode is Main's policy without the process exit.
func exitCode(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, err)
	if errors.Is(err, ErrUsage) {
		return 2
	}
	return 1
}
