package service

import "fmt"

// Row-level error messages.
//
// A failed response row carries its error as a string (ResultRow.Error), so
// the distinction between failure classes lives in the message text itself,
// and these constructors are the single source of the two the cluster
// control plane produces. Every other row error is a workload error: the
// cell executed and its workload failed, and the runner's message is the
// final answer.
//
//   - quarantined cells: the control plane gave up on a cell after it
//     exhausted its failure budget (every attempt ended in a worker loss or
//     a contained cell failure). The row is a final answer too — retrying
//     harder would just crash more workers.
//   - deadline cells: the request's deadline expired before the cell
//     completed. The work may still be cached by a worker; the same request
//     with a longer deadline can succeed.

// QuarantinedRowError renders the error for a cell quarantined after
// losses failed attempts (worker losses or contained cell failures).
func QuarantinedRowError(losses int) string {
	return fmt.Sprintf("cell quarantined after %d worker losses", losses)
}

// DeadlineRowError renders the error for a cell whose request deadline
// expired before a row arrived.
func DeadlineRowError() string { return "request deadline expired before the cell completed" }
