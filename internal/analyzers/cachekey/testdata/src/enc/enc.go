// Package enc is the cachekey fixture: canonical encoders in the shape
// of run's streamKey, complete and incomplete.
package enc

import "strconv"

// Config stands in for a kernel Config: three exported fields (all of
// which must appear in a canonical encoding) and one unexported field
// (which must not be required).
type Config struct {
	Elems   int
	Reps    int
	Verify  bool
	scratch []byte
}

// Normalized mimics stream.Config.Normalized.
func (c Config) Normalized() Config {
	if c.Reps == 0 {
		c.Reps = 3
	}
	return c
}

// completeKey names every exported Config field.
//
//simlint:cachekey
func completeKey(cfg Config) string {
	cfg = cfg.Normalized()
	var buf [64]byte
	b := append(buf[:0], "complete:elems="...)
	b = strconv.AppendInt(b, int64(cfg.Elems), 10)
	b = append(b, ",reps="...)
	b = strconv.AppendInt(b, int64(cfg.Reps), 10)
	b = append(b, ",verify="...)
	b = strconv.AppendBool(b, cfg.Verify)
	return string(b)
}

// incompleteKey dropped the Reps field from the encoding — two configs
// differing only in Reps would share one cache key. This is the
// acceptance fixture: removing a field from a canonical encoding makes
// cachekey fail.
//
//simlint:cachekey
func incompleteKey(cfg Config) string { // want `canonical encoding incompleteKey does not name Config field\(s\) Reps`
	return "incomplete:elems=" + strconv.Itoa(cfg.Elems) + ",verify=" + strconv.FormatBool(cfg.Verify)
}

// unmarkedKey has the canonical-encoder shape (*Key name, single struct
// param, string result) but no directive: a new kernel must not be able
// to ship an unchecked encoding.
func unmarkedKey(cfg Config) string { // want `unmarkedKey looks like a canonical cache-key encoder but has no //simlint:cachekey directive`
	return "unmarked:elems=" + strconv.Itoa(cfg.Elems)
}

// MarkedHelper carries the directive on a differently-shaped function;
// completeness is still enforced through the pointer parameter.
//
//simlint:cachekey
func MarkedHelper(cfg *Config, out map[string]string) { // want `canonical encoding MarkedHelper does not name Config field\(s\) Verify`
	out["elems"] = strconv.Itoa(cfg.Elems)
	out["reps"] = strconv.Itoa(cfg.Reps)
}

// MisplacedDirective has nothing checkable.
//
//simlint:cachekey
func MisplacedDirective() string { // want `MisplacedDirective carries //simlint:cachekey but has no named-struct parameter`
	return "none"
}

// The allowed near-misses for the shape heuristic: a summary helper
// not named *Key, a *Key function whose result is not a string, and one
// taking more than the config, are not mistaken for encoders.

func describeConfig(cfg Config) string { return "elems=" + strconv.Itoa(cfg.Elems) }

func sizeKey(cfg Config) int { return cfg.Elems }

func shardKey(cfg Config, salt string) string { return salt + strconv.Itoa(cfg.Elems) }
