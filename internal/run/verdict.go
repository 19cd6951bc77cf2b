package run

import (
	"errors"
	"fmt"

	"attila/internal/core"
)

// Process exit codes of the CLIs that run simulations.
const (
	ExitOK          = 0
	ExitSimFailure  = 1 // model violation, panic, cycle budget
	ExitDeadlock    = 2 // the no-progress watchdog fired
	ExitInterrupted = 3 // signal or wall-clock timeout
	ExitUsage       = 4 // bad flags or input
)

// ExitCode maps the error of a finished run to the process exit code.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, core.ErrDeadlock):
		return ExitDeadlock
	case errors.Is(err, core.ErrCanceled):
		return ExitInterrupted
	default:
		return ExitSimFailure
	}
}

// Describe expands a deadlock error with the watchdog's full report for
// printing.
func Describe(err error) error {
	var de *core.DeadlockError
	if errors.As(err, &de) {
		return fmt.Errorf("%w\n%s", err, de.Report)
	}
	return err
}
