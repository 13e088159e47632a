// Package cmp is the ctxerr fixture: identity comparisons against
// context sentinels and Err* sentinels, and the errors.Is forms that are
// the fix.
package cmp

import (
	"context"
	"errors"
	"fmt"
)

// ErrOverloaded is a local sentinel with wrapped variants in the wild.
var ErrOverloaded = errors.New("overloaded")

// errInternal is unexported; still a sentinel? No — the analyzer keys on
// the exported Err* convention, and unexported comparisons stay local to
// the package that knows whether wrapping happens.
var errInternal = errors.New("internal")

func Classify(err error) string {
	if err == context.Canceled { // want `err == context\.Canceled compares error identity .*errors\.Is\(err, context\.Canceled\)`
		return "cancelled"
	}
	if err != context.DeadlineExceeded { // want `err != context\.DeadlineExceeded compares error identity`
		return "other"
	}
	return "deadline"
}

func ClassifySwitch(err error) string {
	switch err {
	case nil:
		return "ok"
	case context.Canceled: // want `switch-case context\.Canceled compares error identity`
		return "cancelled"
	case ErrOverloaded: // want `switch-case ErrOverloaded compares error identity`
		return "overloaded"
	}
	return "other"
}

func Sentinel(err error) bool {
	return err == ErrOverloaded // want `err == ErrOverloaded compares error identity`
}

// The fix — and the allowed pattern — is errors.Is.
func ClassifyIs(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	}
	return "other"
}

// Nil comparisons are the ordinary error idiom, never flagged.
func Check(err error) error {
	if err != nil {
		return fmt.Errorf("wrapped: %w", err)
	}
	return nil
}

// Unexported sentinels and local error variables are not flagged.
func Local(err error) bool {
	target := errInternal
	return err == errInternal || err == target
}

// A justified identity comparison suppresses with a reason (the
// run.JoinErrors pattern: bare sentinels are the semantics).
func BareOnly(err error) bool {
	//simlint:allow ctxerr -- only the bare sentinel means "skipped without executing"
	return err == context.Canceled
}
