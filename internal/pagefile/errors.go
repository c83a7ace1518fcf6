package pagefile

import (
	"errors"
	"fmt"
)

// Error taxonomy for the request-lifecycle layer (see retry.go): every
// storage error is either transient — retrying the same operation may
// succeed because the cause was momentary — or permanent. Corruption sits
// between the two: at-rest damage (a torn page on the platter) rereads
// identically, while in-flight damage (a bus flip) heals on reread, so
// corruption gets its own sentinel and RetryPolicy.RetryCorrupt decides
// whether to spend attempts on it.
var (
	// ErrTransient marks errors a retry may clear. ChaosFile wraps its
	// injected errors with it, so callers classify with errors.Is instead
	// of comparing error strings.
	ErrTransient = errors.New("pagefile: transient storage fault")

	// ErrCorrupt marks errors caused by damaged page bytes. ErrChecksum
	// wraps it.
	ErrCorrupt = errors.New("pagefile: corrupt page data")
)

// ErrInjected is the error ChaosFile produces when its profile or its fuse
// decides an operation fails. It wraps ErrTransient: injected faults model
// momentary device failures, the retryable kind.
var ErrInjected = fmt.Errorf("pagefile: injected fault (%w)", ErrTransient)

// IsTransient reports whether err may clear if the operation is retried.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsCorrupt reports whether err was caused by damaged page bytes.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }
