package chiaroscuro

import (
	"errors"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/journal"
)

// Sentinel errors of the eager Options validation: NewJob rejects a bad
// configuration up front with one of these, instead of failing deep in
// the protocol stack mid-run. Match with errors.Is; the returned error
// may wrap a sentinel with the offending value.
var (
	// ErrNoData rejects a nil or empty dataset.
	ErrNoData = errors.New("chiaroscuro: nil or empty dataset")
	// ErrNoSeeds rejects a run with no (non-nil) initial centroids.
	// Seeds are required and must be data-independent (privacy).
	ErrNoSeeds = errors.New("chiaroscuro: no initial centroids")
	// ErrSeedLength rejects initial centroids whose length differs from
	// the dataset's series length.
	ErrSeedLength = errors.New("chiaroscuro: initial centroid length does not match the series length")
	// ErrBadMode rejects an unknown Options.Mode.
	ErrBadMode = errors.New("chiaroscuro: unknown run mode")
	// ErrBadK rejects a negative cluster count.
	ErrBadK = errors.New("chiaroscuro: negative cluster count")
	// ErrBadEpsilon rejects a privacy budget that is not positive and
	// finite in a mode that perturbs releases (every mode but
	// Centralized; CentralizedDP accepts a Budget instead).
	ErrBadEpsilon = errors.New("chiaroscuro: privacy budget must be positive and finite")
	// ErrBadRange rejects DMin > DMax (or NaN bounds): the measure range
	// calibrates the Laplace sensitivity and must be a real interval.
	ErrBadRange = errors.New("chiaroscuro: invalid measure range (DMin must not exceed DMax)")
	// ErrBadIterations rejects a negative iteration cap.
	ErrBadIterations = errors.New("chiaroscuro: negative iteration cap")
	// ErrBadThreshold rejects a negative (or NaN) convergence threshold.
	ErrBadThreshold = errors.New("chiaroscuro: invalid convergence threshold")
	// ErrThresholdNetworked rejects a convergence threshold in Networked
	// mode: networked runs use the fixed iteration schedule (no
	// participant can observe global convergence), so θ must be 0.
	ErrThresholdNetworked = errors.New("chiaroscuro: networked runs use the fixed iteration schedule; set Threshold to 0")
	// ErrBadChurn rejects a disconnection probability outside [0, 1).
	ErrBadChurn = errors.New("chiaroscuro: churn must be in [0, 1)")
	// ErrNilScheme rejects a distributed run without an encryption
	// scheme.
	ErrNilScheme = errors.New("chiaroscuro: nil scheme (Simulated and Networked modes need one)")
	// ErrSchemeShares rejects a scheme with fewer key-shares than the
	// population has participants.
	ErrSchemeShares = errors.New("chiaroscuro: scheme has fewer key-shares than participants")
	// ErrTooFewParticipants rejects a distributed run over fewer than 2
	// series (one participant per series).
	ErrTooFewParticipants = errors.New("chiaroscuro: distributed modes need at least 2 participants")
	// ErrBadCycles rejects negative exchange, dissemination, decryption
	// or noise-share counts.
	ErrBadCycles = errors.New("chiaroscuro: negative exchange/cycle/share count")
	// ErrBadWorkers rejects a negative worker count.
	ErrBadWorkers = errors.New("chiaroscuro: negative worker count")
	// ErrBadPackSlots rejects a negative packing slot count.
	ErrBadPackSlots = errors.New("chiaroscuro: negative pack slots")
	// ErrBadFaultPolicy rejects a FaultPolicy with negative knobs
	// (retries, backoff, or suspicion threshold).
	ErrBadFaultPolicy = errors.New("chiaroscuro: invalid fault policy (negative retries, backoff, or suspicion threshold)")
	// ErrJobReused rejects a second Run on the same Job: a Job is one
	// run; build a new one with NewJob.
	ErrJobReused = errors.New("chiaroscuro: job already run (create a new Job per run)")
	// ErrJournalCorrupt surfaces an unreadable crash-recovery journal: a
	// record failed its checksum, a payload decoded out of bounds, or
	// the file's framing is broken beyond the torn tail that an
	// interrupted append legally leaves (that tail is truncated, not an
	// error). A journal that fails this way cannot resume the run; start
	// the participant fresh or restore the file.
	ErrJournalCorrupt = journal.ErrCorrupt
	// ErrPhaseBudget fails a distributed run whose correction
	// dissemination or epidemic decryption ended with a participant
	// unfinished: the correction not agreed on, or fewer than τ key-shares
	// gathered, when the phase's cycles ran out. The derived phase lengths
	// make it a 10⁻⁶ event per phase; explicit DissCycles or
	// DecryptCycles that are too short make it certain.
	ErrPhaseBudget = core.ErrPhaseBudget
)
