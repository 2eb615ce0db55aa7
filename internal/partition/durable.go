package partition

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"repro/internal/match"
	"repro/internal/par"
)

// partDirName names a partition's data subdirectory inside the store's
// data dir.
func partDirName(i int) string { return fmt.Sprintf("part-%03d", i) }

var (
	partDirRE = regexp.MustCompile(`^part-(\d{3})$`)
	// flatFileRE matches the files a flat (unpartitioned) match.OpenDurable
	// store keeps at the top of its data dir.
	flatFileRE = regexp.MustCompile(`^(wal-\d+\.log|snap-\d+\.db)$`)
)

// inspectDataDir inventories an existing data dir: how many partition
// subdirectories it holds (zero means a fresh dir) and whether flat-store
// files sit at its top level.
func inspectDataDir(dir string) (parts int, flat bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	for _, e := range entries {
		switch {
		case e.IsDir() && partDirRE.MatchString(e.Name()):
			parts++
		case !e.IsDir() && flatFileRE.MatchString(e.Name()):
			flat = true
		}
	}
	return parts, flat, nil
}

// OpenDurable opens (creating if needed) a durable partitioned store
// rooted at dir: each partition persists into its own part-NNN
// subdirectory (WAL segments + snapshots, the match.OpenDurable layout),
// all partitions replay concurrently, the global ID allocator resumes past
// the max replayed ID, and the token census (with more than one
// partition) is rebuilt from the surviving records — so a restarted store
// prunes exactly like the one that shut down.
//
// The partition count is fixed at creation: records are routed by
// consistent-hashing their IDs, so a dir created with N partitions opened
// as M would look every record up in the wrong place. A count mismatch is
// refused, not repartitioned.
//
// A flat store's data dir (wal-*.log and snap-*.db files at the top level,
// as match.OpenDurable writes them) is refused too, with the fix in the
// error: move the files into part-000 and open with one partition. Every
// ID hashes to partition 0 of one, so that move serves the same records
// under the same IDs.
func OpenDurable(dir string, arity int, o Options) (*Store, error) {
	o = o.withDefaults()
	if o.Scorer == nil {
		return nil, errors.New("partition: Options.Scorer is required")
	}
	existing, flat, err := inspectDataDir(dir)
	if err != nil {
		return nil, fmt.Errorf("partition: inspecting data dir: %w", err)
	}
	if flat {
		return nil, fmt.Errorf("partition: data dir %s holds a flat store's wal-*.log/snap-*.db files at its top level; move them into %s and open it with one partition",
			dir, filepath.Join(dir, partDirName(0)))
	}
	if existing > 0 && existing != o.Partitions {
		return nil, fmt.Errorf("partition: data dir %s holds %d partitions but %d were requested; the partition count is fixed at creation (repartition by rebuilding into a fresh dir)",
			dir, existing, o.Partitions)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("partition: creating data dir: %w", err)
	}

	s, partCfg, err := newRouter(arity, o)
	if err != nil {
		return nil, err
	}

	// Replay all partitions concurrently: restart time is the slowest
	// partition's replay, not the sum (restart amortization is half the
	// point of partitioning the WAL).
	durs := make([]*match.DurableStore, o.Partitions)
	errs := make([]error, o.Partitions)
	par.ForWorkers(o.Partitions, o.Partitions, func(i int) {
		opts := o.Durable
		if o.Progress != nil {
			opts.Progress = func(phase string, done, total int) {
				o.Progress(i, phase, done, total)
			}
		}
		durs[i], errs[i] = match.OpenDurable(filepath.Join(dir, partDirName(i)), arity, partCfg, opts)
	})
	if err := errors.Join(errs...); err != nil {
		for _, d := range durs {
			if d != nil {
				_ = d.Close() // best-effort: the open error is the one to report
			}
		}
		return nil, err
	}

	var nextID uint64
	for i, d := range durs {
		s.parts[i] = newReplicaSet(NewLocalDurable(d, o.Scorer), o.Replicas)
		if n := d.NextID(); n > nextID {
			nextID = n
		}
		if s.census != nil {
			d.Range(func(_ uint64, values []string) bool {
				s.censusAdd(values)
				return true
			})
		}
	}
	s.nextID.Store(nextID)
	return s, nil
}
