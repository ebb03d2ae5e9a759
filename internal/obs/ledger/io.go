package ledger

import (
	"fmt"
	"os"
	"path/filepath"
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
