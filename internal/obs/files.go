package obs

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// CellPath derives a per-cell output filename: a single-cell run keeps
// the path as given, while multi-cell sweeps splice the cell name before
// the extension (out.json → out.bfs-po.prodigy.json) so concurrent runs
// never share a file. An empty path stays empty (that output disabled).
func CellPath(path, cell string, single bool) string {
	if path == "" || single {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + cell + ext
}

// OpenFiles builds a Recorder writing the catapult trace to tracePath, the
// interval metrics JSONL to metricsPath and the prefetch ledger JSONL to
// ledgerPath (any may be empty to skip that output), sampling every
// interval cycles (<=0 means DefaultInterval). It returns the recorder
// and a close function that flushes and closes the files, combining any
// deferred write errors; the close function must be called after
// Recorder.Finish. When every path is empty it returns (nil, no-op, nil)
// — the fully-disabled path.
func OpenFiles(tracePath, metricsPath, ledgerPath string, interval int64) (*Recorder, func() error, error) {
	if tracePath == "" && metricsPath == "" && ledgerPath == "" {
		return nil, func() error { return nil }, nil
	}
	var (
		files   []*os.File
		writers []*bufio.Writer
		opts    = Options{Interval: interval}
	)
	open := func(path string) (*bufio.Writer, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		w := bufio.NewWriterSize(f, 1<<16)
		files = append(files, f)
		writers = append(writers, w)
		return w, nil
	}
	closeAll := func() error {
		var errs []error
		for _, w := range writers {
			errs = append(errs, w.Flush())
		}
		for _, f := range files {
			errs = append(errs, f.Close())
		}
		return errors.Join(errs...)
	}
	for _, out := range []struct {
		path string
		w    *io.Writer
	}{
		{tracePath, &opts.Trace},
		{metricsPath, &opts.Metrics},
		{ledgerPath, &opts.Ledger},
	} {
		if out.path == "" {
			continue
		}
		w, err := open(out.path)
		if err != nil {
			return nil, nil, errors.Join(err, closeAll())
		}
		*out.w = w
	}
	return New(opts), closeAll, nil
}
