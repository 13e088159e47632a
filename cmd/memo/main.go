// Command memo operates on a persistent result-cache directory — the same
// store cmd/simd fills when started with -cache-dir. It moves warm caches
// between machines (export on the build box, import on the fleet), audits
// what is cached, and reclaims dead weight after a model-version bump.
//
// Usage:
//
//	memo ls     -dir DIR [-damaged]        list entries (read-only)
//	memo export -dir DIR [-o FILE]         write a snapshot stream (default stdout)
//	memo import -dir DIR [-i FILE]         install a snapshot stream (default stdin)
//	memo gc     -dir DIR [-stale] [-dry-run]  reclaim quarantine, temp files, stale versions
//
// A snapshot is self-validating: each line is one entry in JSON, carrying
// its version namespace, coordinates, payload and checksum — the same sum
// the entry file's header line carries. Import re-verifies everything end
// to end and writes each entry as a framed file; damaged lines are skipped
// and counted rather than installed. A snapshot of any key format imports:
// its entries land under their own version. `gc -stale`
// removes every entry that does not belong to the current model version
// (run.CacheVersion) — the cleanup half of the cache-versioning contract.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"riscvmem/internal/memostore"
	"riscvmem/internal/run"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "ls":
		err = cmdLs(args)
	case "export":
		err = cmdExport(args)
	case "import":
		err = cmdImport(args)
	case "gc":
		err = cmdGC(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "memo: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "memo:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `memo operates on a simd persistent result cache (simd -cache-dir).

  memo ls     -dir DIR [-damaged]           list cached entries
  memo export -dir DIR [-o FILE]            write a snapshot stream
  memo import -dir DIR [-i FILE]            install a snapshot stream
  memo gc     -dir DIR [-stale] [-dry-run]  reclaim dead weight

Current model version: %s
`, run.CacheVersion)
}

// openDisk opens the store named by the common -dir flag (required).
func openDisk(dir string) (*memostore.Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir is required")
	}
	d, err := memostore.OpenDisk(dir, run.ResultCodec())
	if err != nil {
		return nil, err
	}
	d.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "memo: "+format+"\n", args...)
	}
	return d, nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("memo ls", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory")
	damaged := fs.Bool("damaged", false, "list only entries that fail validation")
	fs.Parse(args)
	d, err := openDisk(*dir)
	if err != nil {
		return err
	}
	entries, bytes, bad := 0, int64(0), 0
	err = d.Walk(func(info memostore.EntryInfo) error {
		if info.Err != nil {
			bad++
			fmt.Printf("DAMAGED  %s: %v\n", info.Path, info.Err)
			return nil
		}
		entries++
		bytes += info.Size
		if !*damaged {
			stale := ""
			if info.Key.Version != run.CacheVersion {
				stale = "  [stale version]"
			}
			fmt.Printf("%-12s %8d B  %s  %s%s\n",
				info.Key.Version, info.Size, info.Key.Device, info.Key.Workload, stale)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "memo: %d entries, %d bytes, %d damaged (version %s)\n",
		entries, bytes, bad, run.CacheVersion)
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("memo export", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	d, err := openDisk(*dir)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	stats, err := d.Export(w)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "memo: exported %d entries (%d damaged entries skipped)\n",
		stats.Entries, stats.Skipped)
	return nil
}

func cmdImport(args []string) error {
	fs := flag.NewFlagSet("memo import", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory")
	in := fs.String("i", "", "input file (default stdin)")
	fs.Parse(args)
	d, err := openDisk(*dir)
	if err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	stats, err := d.Import(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "memo: imported %d new, replaced %d, skipped %d invalid\n",
		stats.Added, stats.Replaced, stats.Invalid)
	return nil
}

func cmdGC(args []string) error {
	fs := flag.NewFlagSet("memo gc", flag.ExitOnError)
	dir := fs.String("dir", "", "cache directory")
	stale := fs.Bool("stale", false, "also remove entries from other model versions (keep only "+run.CacheVersion+")")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without removing it")
	fs.Parse(args)
	if *dryRun {
		// Dry run is a read-only walk: count what gc would touch.
		d, err := openDisk(*dir)
		if err != nil {
			return err
		}
		staleEntries := 0
		err = d.Walk(func(info memostore.EntryInfo) error {
			if info.Err == nil && *stale && info.Key.Version != run.CacheVersion {
				staleEntries++
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "memo: dry run: %d stale entries would be removed (plus quarantine and temp files)\n",
			staleEntries)
		return nil
	}
	d, err := openDisk(*dir)
	if err != nil {
		return err
	}
	keep := ""
	if *stale {
		keep = run.CacheVersion
	}
	stats, err := d.GC(keep)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "memo: removed %d quarantined, %d temp files, %d stale entries (%d stale versions)\n",
		stats.Quarantined, stats.TempFiles, stats.StaleEntries, stats.StaleVersions)
	return nil
}
