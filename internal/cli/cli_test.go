package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"testing"
)

func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		err     error
		code    int
		printed bool
	}{
		{nil, 0, false},
		{flag.ErrHelp, 0, false},
		{fmt.Errorf("%w: bad flag", ErrUsage), 2, true},
		{errors.New("open x: no such file"), 1, true},
	} {
		var stderr bytes.Buffer
		if got := exitCode(tc.err, &stderr); got != tc.code {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.code)
		}
		if printed := stderr.Len() > 0; printed != tc.printed {
			t.Errorf("exitCode(%v) printed %q", tc.err, stderr.String())
		}
	}
}
