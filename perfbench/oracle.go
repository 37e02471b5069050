package main

import (
	"fmt"
	"os"
	"strings"
)

// Oracle files, relative to the oracle directory: the recorded output
// of `asapbench -experiment all` at each scale.
const (
	quickOracle = "experiments-quickscale.txt"
	fullOracle  = "experiments-fullscale.txt"
)

// oracle is a recorded sweep output split into per-experiment sections.
type oracle struct {
	sections map[string]string
	last     string // the final section's experiment
}

// loadOracle reads and splits one oracle file.
func loadOracle(path string) (*oracle, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o, err := splitSections(string(b))
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", path, err)
	}
	return o, nil
}

// splitSections splits `-experiment all` output on its
// "==== name ====" banner lines. Each section is the text between its
// banner and the next, which is exactly what the experiment prints when
// run alone.
func splitSections(text string) (*oracle, error) {
	o := &oracle{sections: map[string]string{}}
	var body strings.Builder
	flush := func() {
		if o.last != "" {
			o.sections[o.last] = body.String()
		}
		body.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if name, ok := banner(line); ok {
			flush()
			if _, dup := o.sections[name]; dup {
				return nil, fmt.Errorf("experiment %q appears twice", name)
			}
			o.sections[name] = ""
			o.last = name
			continue
		}
		if o.last == "" && line != "" {
			return nil, fmt.Errorf("text before the first banner")
		}
		body.WriteString(line)
	}
	flush()
	if o.last == "" {
		return nil, fmt.Errorf("no experiment banners")
	}
	return o, nil
}

// banner parses a "==== name ====\n" line.
func banner(line string) (string, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), "==== ")
	if !ok {
		return "", false
	}
	name, ok := strings.CutSuffix(rest, " ====")
	if !ok || name == "" || strings.ContainsAny(name, " =") {
		return "", false
	}
	return name, true
}

// has reports whether the oracle holds a section for name.
func (o *oracle) has(name string) bool {
	_, ok := o.sections[name]
	return ok
}

// matches reports whether got is byte-identical to name's section. The
// file's last section may have lost its final newline to an editor, so
// there one trailing newline more in got is allowed.
func (o *oracle) matches(name string, got []byte) bool {
	want, ok := o.sections[name]
	if !ok {
		return false
	}
	return string(got) == want || (name == o.last && string(got) == want+"\n")
}
