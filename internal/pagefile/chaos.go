package pagefile

import (
	"math/rand"
	"sync"
)

// ChaosProfile gives per-operation-kind fault probabilities for a ChaosFile.
// All rates are independent probabilities in [0, 1]; for writes the three
// modes are mutually exclusive and tested in order (error, torn, short).
type ChaosProfile struct {
	// ReadErr is the probability a read fails outright with ErrInjected.
	ReadErr float64
	// ReadCorrupt is the probability a read succeeds but returns a buffer
	// with one byte flipped — silent corruption a ChecksumFile layered above
	// turns into a detected ErrChecksum.
	ReadCorrupt float64
	// WriteErr is the probability a write fails with nothing persisted.
	WriteErr float64
	// WriteTorn is the probability a write persists only a prefix of the
	// page and then fails with ErrInjected (a torn page).
	WriteTorn float64
	// WriteShort is the probability a write persists only a prefix but
	// reports success — the silent variant of a torn page.
	WriteShort float64
	// AllocErr and FreeErr fail Allocate and Free with ErrInjected.
	AllocErr float64
	FreeErr  float64
	// SyncErr is the probability a Sync fails with ErrInjected and does
	// nothing: previously acknowledged writes stay volatile. The caller
	// knows durability was not reached and can retry or abort.
	SyncErr float64
	// SyncLost is the probability a Sync reports success without reaching
	// the inner file — the lying-fsync failure mode. A crash after a lost
	// sync loses writes the caller believes durable, which is exactly what
	// the WAL's log-before-ack discipline has to survive.
	SyncLost float64
}

// ChaosProfiles are the named fault profiles the simulator, htreed and CI
// select from.
var ChaosProfiles = map[string]ChaosProfile{
	"off": {},
	"light": {ReadErr: 0.002, ReadCorrupt: 0.001, WriteErr: 0.005,
		WriteTorn: 0.002, WriteShort: 0.001, AllocErr: 0.002, FreeErr: 0.002},
	"heavy": {ReadErr: 0.02, ReadCorrupt: 0.01, WriteErr: 0.05,
		WriteTorn: 0.02, WriteShort: 0.01, AllocErr: 0.02, FreeErr: 0.02},
}

// Zero reports whether the profile injects nothing.
func (p ChaosProfile) Zero() bool {
	return p.ReadErr == 0 && p.ReadCorrupt == 0 && p.WriteErr == 0 &&
		p.WriteTorn == 0 && p.WriteShort == 0 && p.AllocErr == 0 && p.FreeErr == 0 &&
		p.SyncErr == 0 && p.SyncLost == 0
}

// ChaosCounts tallies the faults a ChaosFile actually injected.
type ChaosCounts struct {
	ReadErrs     uint64
	ReadCorrupts uint64
	WriteErrs    uint64
	WriteTorn    uint64
	WriteShort   uint64
	AllocErrs    uint64
	FreeErrs     uint64
	SyncErrs     uint64
	SyncLost     uint64
}

// Total returns the number of injected faults of all kinds.
func (c ChaosCounts) Total() uint64 {
	return c.ReadErrs + c.ReadCorrupts + c.WriteErrs + c.WriteTorn +
		c.WriteShort + c.AllocErrs + c.FreeErrs + c.SyncErrs + c.SyncLost
}

// ChaosFile wraps a File and injects faults probabilistically from a seeded
// random source, so a whole workload's fault schedule is reproducible from
// (seed, operation sequence) alone. Besides outright errors it models the
// failure modes that don't announce themselves: torn writes, short writes
// reported as successes, and bit corruption on read. Layer a ChecksumFile
// above it to turn the silent modes into detected errors.
//
// A ChaosFile also carries a deterministic countdown fuse (SetRemaining,
// and a heal-after-N mode its tests set) for failure-injection tests that need the N-th operation
// to fail exactly: a zero profile with an armed fuse is a pure fuse. The
// fuse is checked before the profile's draw and, while disarmed (the
// default), draws nothing, so seeded fault schedules do not depend on it.
//
// The file is safe for concurrent use; the rng and the fuse are
// mutex-guarded, so fault decisions are serialized in call order
// (deterministic for single-threaded drivers such as the workload
// simulator) and a fuse's budget holds exactly under concurrent callers.
type ChaosFile struct {
	File
	mu      sync.Mutex
	rng     *rand.Rand
	profile ChaosProfile
	enabled bool
	counts  ChaosCounts

	// armed, remaining and healAfter are the fuse: while armed, remaining
	// operations succeed, then each fails; healAfter > 0 disarms the fuse
	// after that many failures, 0 fails forever.
	armed     bool
	remaining int
	healAfter int
}

// NewChaosFile wraps inner with the given fault profile and seed. The file
// starts enabled, with the fuse disarmed.
func NewChaosFile(inner File, profile ChaosProfile, seed int64) *ChaosFile {
	return &ChaosFile{File: inner, rng: rand.New(rand.NewSource(seed)), profile: profile, enabled: true}
}

// SetEnabled toggles fault injection, the fuse included, without disturbing
// the rng stream's determinism for operations issued while enabled.
func (f *ChaosFile) SetEnabled(on bool) {
	f.mu.Lock()
	f.enabled = on
	f.mu.Unlock()
}

// SetRemaining arms the fuse: the next n operations of any kind succeed
// (as far as the fuse is concerned) and every one after them fails with
// ErrInjected. n == 0 burns the fuse at once; rearming resets the budget.
func (f *ChaosFile) SetRemaining(n int) {
	f.mu.Lock()
	f.armed, f.remaining = true, n
	f.mu.Unlock()
}

// Counts returns the faults injected so far, the fuse's included.
func (f *ChaosFile) Counts() ChaosCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// blown spends one operation from an armed fuse and reports whether it
// fails. The caller holds mu and has checked enabled.
func (f *ChaosFile) blown() bool {
	if !f.armed {
		return false
	}
	if f.remaining > 0 {
		f.remaining--
		return false
	}
	if f.healAfter > 0 {
		f.healAfter--
		f.armed = f.healAfter > 0
	}
	return true
}

type chaosAction int

const (
	actNone chaosAction = iota
	actErr
	actCorrupt // reads only
	actTorn    // writes only
	actShort   // writes only
)

// decideRead draws one fault decision for a read. corruptAt is the byte
// offset to flip when the action is actCorrupt.
func (f *ChaosFile) decideRead(bufLen int) (chaosAction, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.enabled {
		return actNone, 0
	}
	if f.blown() {
		f.counts.ReadErrs++
		return actErr, 0
	}
	r := f.rng.Float64()
	switch {
	case r < f.profile.ReadErr:
		f.counts.ReadErrs++
		return actErr, 0
	case r < f.profile.ReadErr+f.profile.ReadCorrupt:
		f.counts.ReadCorrupts++
		return actCorrupt, f.rng.Intn(bufLen)
	}
	return actNone, 0
}

// decideWrite draws one fault decision for a write. prefix is the number of
// bytes to persist for torn/short writes.
func (f *ChaosFile) decideWrite(dataLen int) (chaosAction, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.enabled {
		return actNone, 0
	}
	if f.blown() {
		f.counts.WriteErrs++
		return actErr, 0
	}
	r := f.rng.Float64()
	p := f.profile
	switch {
	case r < p.WriteErr:
		f.counts.WriteErrs++
		return actErr, 0
	case r < p.WriteErr+p.WriteTorn:
		f.counts.WriteTorn++
		return actTorn, f.rng.Intn(dataLen + 1)
	case r < p.WriteErr+p.WriteTorn+p.WriteShort:
		f.counts.WriteShort++
		return actShort, f.rng.Intn(dataLen + 1)
	}
	return actNone, 0
}

func (f *ChaosFile) decideSimple(rate float64, count *uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.enabled || (!f.blown() && f.rng.Float64() >= rate) {
		return false
	}
	*count++
	return true
}

// ReadPage implements File with fault injection.
func (f *ChaosFile) ReadPage(id PageID, buf []byte) error { return f.read(id, buf, false) }

// ReadPageSeq implements File with fault injection.
func (f *ChaosFile) ReadPageSeq(id PageID, buf []byte) error { return f.read(id, buf, true) }

func (f *ChaosFile) read(id PageID, buf []byte, seq bool) error {
	act, pos := f.decideRead(len(buf))
	if act == actErr {
		return ErrInjected
	}
	if err := readVia(f.File, id, buf, seq); err != nil {
		return err
	}
	if act == actCorrupt {
		buf[pos] ^= 0xA5
	}
	return nil
}

// WritePage implements File with probabilistic fault injection. Torn and
// short writes persist data[:prefix]; the underlying page file zero-fills
// the remainder, which is exactly what makes the damage detectable by a
// checksum layer sitting above this one.
func (f *ChaosFile) WritePage(id PageID, data []byte) error {
	act, prefix := f.decideWrite(len(data))
	switch act {
	case actErr:
		return ErrInjected
	case actTorn:
		_ = f.File.WritePage(id, data[:prefix]) // damage lands regardless
		return ErrInjected
	case actShort:
		return f.File.WritePage(id, data[:prefix])
	}
	return f.File.WritePage(id, data)
}

// Allocate implements File with probabilistic fault injection.
func (f *ChaosFile) Allocate() (PageID, error) {
	if f.decideSimple(f.profile.AllocErr, &f.counts.AllocErrs) {
		return InvalidPage, ErrInjected
	}
	return f.File.Allocate()
}

// Free implements File with probabilistic fault injection.
func (f *ChaosFile) Free(id PageID) error {
	if f.decideSimple(f.profile.FreeErr, &f.counts.FreeErrs) {
		return ErrInjected
	}
	return f.File.Free(id)
}

// decideSync draws one fault decision for a Sync. The two modes are
// mutually exclusive and tested in order (error, lost). When both rates are
// zero no random number is drawn, so profiles written before sync faults
// existed keep their exact fault schedules.
func (f *ChaosFile) decideSync() chaosAction {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.enabled {
		return actNone
	}
	if f.blown() {
		f.counts.SyncErrs++
		return actErr
	}
	p := f.profile
	if p.SyncErr == 0 && p.SyncLost == 0 {
		return actNone
	}
	r := f.rng.Float64()
	switch {
	case r < p.SyncErr:
		f.counts.SyncErrs++
		return actErr
	case r < p.SyncErr+p.SyncLost:
		f.counts.SyncLost++
		return actShort
	}
	return actNone
}

// Sync implements File with probabilistic fault injection: it can fail
// outright (nothing durable, error reported) or lie — report success while
// leaving the inner file untouched.
func (f *ChaosFile) Sync() error {
	switch f.decideSync() {
	case actErr:
		return ErrInjected
	case actShort: // lost: acknowledged but never reached the device
		return nil
	}
	return f.File.Sync()
}
