package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
)

// JournalVersion guards the run-journal format.
const JournalVersion = 1

// JournalSuffix is appended to the checkpoint path to name its run
// journal (run.ckpt -> run.ckpt.journal).
const JournalSuffix = ".journal"

// ErrNoJournal is returned by FindJournal when the directory holds no
// run journal — either no journaled run ever started there, or the
// process died before the journal's first atomic write landed. In the
// latter case no training state exists either (the journal is written
// before the first epoch), so the caller's recovery is simply to start
// the run fresh.
var ErrNoJournal = errors.New("ckpt: no run journal")

// EpochRecord is one completed epoch in a run journal: enough to
// reconstruct the per-epoch loss trajectory of the finished prefix
// without retraining it. Float64 values round-trip bit-exactly through
// JSON (Go emits the shortest representation that re-parses to the same
// bits), which the crash-resume byte-identity contract relies on.
type EpochRecord struct {
	Epoch  int     `json:"epoch"` // 1-based, matching train.EpochStats.Epoch
	Loss   float64 `json:"loss"`
	Metric float64 `json:"metric,omitempty"`
}

// Journal is the durable record of a checkpointed training run,
// written atomically (fsync-temp-rename, like the checkpoint itself)
// next to the checkpoint after every completed epoch. After a crash,
// marius.Resume replays it: restore the newest checkpoint, skip the
// recorded epochs, retrain the rest — landing on losses and a final
// checkpoint byte-identical to an uninterrupted run.
type Journal struct {
	Version int `json:"version"`

	// Task, Seed, and DataDir pin the run's identity; Resume rebuilds
	// the session from DataDir and refuses a journal whose task or seed
	// disagrees with the restored checkpoint.
	Task    string `json:"task"`
	Seed    int64  `json:"seed"`
	DataDir string `json:"data_dir"`

	// Epochs is the run's target epoch count; Ckpt the checkpoint's
	// basename next to the journal; CkptEvery the interval-checkpoint
	// cadence (0: only the final checkpoint).
	Epochs    int    `json:"epochs"`
	Ckpt      string `json:"ckpt"`
	CkptEvery int    `json:"ckpt_every,omitempty"`

	// Opts carries the caller-layer options needed to rebuild the
	// session identically (dimensions, batch size, learning rates, ...),
	// opaque to this package.
	Opts json.RawMessage `json:"opts,omitempty"`

	// Done lists the completed epochs in order.
	Done []EpochRecord `json:"done"`
}

// JournalPath names the run journal for a checkpoint path.
func JournalPath(ckptPath string) string { return ckptPath + JournalSuffix }

// WriteJournal atomically and durably writes j to path through fsys
// (nil means the real filesystem), with the same temp-fsync-rename
// discipline (fault.AtomicWrite) as checkpoints: a crash leaves either
// the previous journal or the complete new one.
func WriteJournal(fsys fault.FS, path string, j *Journal) error {
	return fault.AtomicWrite(fsys, path, ".journal-*", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(j); err != nil {
			return fmt.Errorf("ckpt: encode journal: %w", err)
		}
		return nil
	})
}

// ReadJournal loads and validates a run journal.
func ReadJournal(path string) (*Journal, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var j Journal
	if err := json.Unmarshal(buf, &j); err != nil {
		return nil, fmt.Errorf("ckpt: malformed journal %s: %w", path, err)
	}
	if j.Version != JournalVersion {
		return nil, fmt.Errorf("ckpt: journal %s has version %d, this build reads %d", path, j.Version, JournalVersion)
	}
	if j.Ckpt == "" || j.Epochs <= 0 {
		return nil, fmt.Errorf("ckpt: journal %s missing checkpoint name or epoch target", path)
	}
	for i, r := range j.Done {
		if r.Epoch != i+1 {
			return nil, fmt.Errorf("ckpt: journal %s records epoch %d at position %d", path, r.Epoch, i)
		}
	}
	return &j, nil
}

// FindJournal locates the single run journal in dir, returning its path
// and contents. No journal at all returns ErrNoJournal; more than one
// is an error (the directory hosted multiple checkpointed runs, and the
// caller must name one explicitly).
func FindJournal(dir string) (string, *Journal, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*"+JournalSuffix))
	if err != nil {
		return "", nil, err
	}
	switch len(matches) {
	case 0:
		return "", nil, fmt.Errorf("%w in %s", ErrNoJournal, dir)
	case 1:
	default:
		return "", nil, fmt.Errorf("ckpt: %d run journals in %s; resume from an explicit checkpoint path", len(matches), dir)
	}
	j, err := ReadJournal(matches[0])
	if err != nil {
		return "", nil, err
	}
	return matches[0], j, nil
}

// SweepTemps removes stale atomic-write temp files (".ckpt-*",
// ".journal-*") left in dir by a crashed process. The atomic-write
// protocol never promotes a temp file that was not fully synced, so any
// survivor is garbage by construction. Returns the removed paths.
func SweepTemps(dir string) ([]string, error) {
	var removed []string
	for _, pat := range []string{".ckpt-*", ".journal-*"} {
		matches, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return removed, err
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
				return removed, err
			}
			removed = append(removed, m)
		}
	}
	return removed, nil
}
