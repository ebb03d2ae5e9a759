package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileName returns the canonical on-disk name for a manifest: its ID
// slugified, or the spec fingerprint when the ID is empty.
func (m *Manifest) FileName() string {
	base := Slug(m.ID)
	if base == "" {
		base = m.Fingerprint
	}
	return base + ".manifest.json"
}

// WriteFile writes the canonical encoding to path, creating parent
// directories as needed.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads and validates one manifest.
func ReadFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// ReadDir loads every *.manifest.json under dir, sorted by file name
// for deterministic iteration, and returns them keyed by ID (file base
// name when the ID is empty).
func ReadDir(dir string) (map[string]*Manifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".manifest.json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := make(map[string]*Manifest, len(names))
	for _, name := range names {
		m, err := ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		key := m.ID
		if key == "" {
			key = strings.TrimSuffix(name, ".manifest.json")
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("ledger: duplicate manifest id %q in %s", key, dir)
		}
		out[key] = m
	}
	return out, nil
}

// Slug builds a filesystem-safe fragment from a run label.
func Slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && b.String()[b.Len()-1] != '-':
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}
