// Command spacecache inspects and prunes the on-disk space cache that
// stabcheck/stabbench populate with -cache. Entries are self-describing —
// key and kind from the filename, size and last-use from the inode — so
// the tool needs no index: `stats` lists them oldest last-use first (the
// eviction order) with per-entry size and age plus totals, and
// `gc -max-bytes N` deletes least-recently-used entries until the
// survivors fit the budget. Eviction is whole-file and survivors are
// never rewritten, so gc cannot corrupt what it keeps; entries some
// running analysis still has mapped stay readable off the unlinked inode.
//
// Examples:
//
//	spacecache stats -dir ~/.weakstab-cache
//	spacecache gc -dir ~/.weakstab-cache -max-bytes 268435456
//	spacecache gc -dir ~/.weakstab-cache -max-bytes 0   # empty the cache
package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"weakstab/internal/cli"
	"weakstab/internal/spacecache"
)

func main() { cli.Exit("spacecache", run(os.Args[1:], os.Stdout)) }

// run is the whole command behind a testable seam: subcommand dispatch and
// output against an injected writer.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%w: spacecache <stats|gc> -dir DIR [-max-bytes N]", cli.ErrUsage)
	}
	sub := args[0]
	fs := cli.FlagSet("spacecache " + sub)
	dir := fs.String("dir", "", "cache directory (as given to stabcheck/stabbench -cache)")
	var maxBytes *int64
	switch sub {
	case "stats":
	case "gc":
		maxBytes = fs.Int64("max-bytes", -1, "delete oldest entries until the rest total at most this many bytes")
	default:
		return fmt.Errorf("%w: unknown subcommand %q (want stats or gc)", cli.ErrUsage, sub)
	}
	// The observability scope makes gc's cache.evict events land in a
	// trace or manifest like any other cache traffic, and records a bad
	// -dir as the run's error.
	return cli.Run(fs, args[1:], false, func(*cli.ObsRun) error {
		switch {
		case *dir == "":
			return fmt.Errorf("%w: -dir is required", cli.ErrUsage)
		case maxBytes != nil && *maxBytes < 0:
			return fmt.Errorf("%w: gc requires -max-bytes N (0 empties the cache)", cli.ErrUsage)
		}
		if _, err := os.Stat(*dir); err != nil {
			return err // inspecting must not create the directory, unlike Open
		}
		cache, err := spacecache.Open(*dir)
		switch {
		case err != nil:
			return err
		case maxBytes == nil:
			return runStats(cache, out)
		}
		return runGC(cache, out, *maxBytes)
	})
}

// runStats prints the cache's entries oldest last-use first — the order gc
// would evict them in — with a trailing count/size total.
func runStats(cache *spacecache.Cache, out io.Writer) error {
	entries, err := cache.Entries()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "KEY\tKIND\tBYTES\tLAST-USE")
	var total int64
	for _, e := range entries {
		total += e.Bytes
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\n", e.Key, e.Kind, e.Bytes, e.LastUse.UTC().Format(time.RFC3339))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%d entries, %d bytes\n", len(entries), total)
	return err
}

// runGC evicts least-recently-used entries down to the byte budget and
// reports what went and what stayed.
func runGC(cache *spacecache.Cache, out io.Writer, maxBytes int64) error {
	deleted, remaining, err := cache.GC(maxBytes)
	for _, e := range deleted {
		fmt.Fprintf(out, "deleted %s.%s (%d bytes, last used %s)\n",
			e.Key, e.Kind, e.Bytes, e.LastUse.UTC().Format(time.RFC3339))
	}
	fmt.Fprintf(out, "%d entries deleted, %d bytes remain\n", len(deleted), remaining)
	return err
}
