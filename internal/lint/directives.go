// Shared machinery for the repository's inline source directives —
// //sgxperf:allow(name), //sgxperf:lockorder and //sgxperf:secret all
// follow the same protocol: a marker comment placed on (or on the line
// directly above) the statement it concerns, followed by a mandatory
// one-line justification, with unused markers reported as stale so a
// suppression can never outlive the diagnostic it was written for.
// Each family's collector gives collectDirectives its syntax, its name
// and its problem wording; the bookkeeping (position matching, used
// tracking, justification and staleness problems) is shared here.
package lint

import (
	"go/token"
	"regexp"
	"strings"
)

// a directiveKey locates one directive occurrence: the file and line it
// sits on, and the analyzer it addresses.
type directiveKey struct {
	file     string
	line     int
	analyzer string
}

// A directiveSet is the parsed occurrences of one directive family —
// suppressions, lock-order exemptions or secret markers — keyed by
// (file, line, analyzer) with the justification as the value.
type directiveSet struct {
	fset    *token.FileSet
	entries map[directiveKey]string // key → justification
	used    map[directiveKey]bool
	// missing and stale word the two problems for the addressed analyzer.
	missing, stale func(analyzer string) string
}

// collectDirectives scans every comment of the given packages for the
// directive matched by re. When fixedName is non-empty the directive
// names no analyzer itself (//sgxperf:lockorder) and re's first capture
// group is the justification; every occurrence addresses fixedName,
// the analyzer its problems are reported under. Otherwise
// (//sgxperf:allow) the first group is the analyzer name and the second
// the justification.
func collectDirectives(fset *token.FileSet, pkgs []*Package, re *regexp.Regexp, fixedName string, missing, stale func(string) string) *directiveSet {
	ds := &directiveSet{
		fset:    fset,
		entries: make(map[directiveKey]string),
		used:    make(map[directiveKey]bool),
		missing: missing,
		stale:   stale,
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					m := re.FindStringSubmatch(strings.TrimSpace(c.Text))
					if m == nil {
						continue
					}
					name, why := fixedName, m[1]
					if fixedName == "" {
						name, why = m[1], m[2]
					}
					p := fset.Position(c.Pos())
					ds.entries[directiveKey{p.Filename, p.Line, name}] = strings.TrimSpace(why)
				}
			}
		}
	}
	return ds
}

// covers reports whether a directive addressed to the named analyzer
// sits on the same line as pos or the line directly above, marking the
// matched entry as used for staleness tracking.
func (ds *directiveSet) covers(analyzer string, pos token.Pos) bool {
	if ds == nil {
		return false
	}
	p := ds.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		k := directiveKey{p.Filename, line, analyzer}
		if _, ok := ds.entries[k]; ok {
			ds.used[k] = true
			return true
		}
	}
	return false
}

// problems returns diagnostics about the directives themselves:
// occurrences with no justification, and occurrences that matched
// nothing (stale markers hide future regressions). active limits the
// check to directives addressing an analyzer in the map (nil means all
// occurrences are in scope).
func (ds *directiveSet) problems(active map[string]bool) []Diagnostic {
	var out []Diagnostic
	for k, why := range ds.entries {
		if active != nil && !active[k.analyzer] {
			continue
		}
		switch {
		case why == "":
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: k.file, Line: k.line, Column: 1},
				Analyzer: k.analyzer,
				Message:  ds.missing(k.analyzer),
			})
		case !ds.used[k]:
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: k.file, Line: k.line, Column: 1},
				Analyzer: k.analyzer,
				Message:  ds.stale(k.analyzer),
			})
		}
	}
	return out
}
