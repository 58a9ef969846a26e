package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Config serialization: experiment setups are plain data, so they
// round-trip through JSON, policies by name. `saisim -config` loads one
// as the base that name=value arguments apply over; `-save-config`
// writes the effective configuration of a run (WriteConfig) for later
// reproduction.

// WriteConfig serializes c as indented JSON.
func WriteConfig(w io.Writer, c Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadConfig parses a configuration and validates it. Unknown fields
// are rejected so typos in hand-written files surface immediately.
func ReadConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	cfg := DefaultConfig()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("cluster: parsing config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// LoadConfig reads a configuration file.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return ReadConfig(f)
}

// SaveConfig writes a configuration file. The close error is checked:
// for a freshly written file, Close is where buffered write failures
// (full disk, quota) surface, and dropping it would report success for
// a truncated file.
func SaveConfig(path string, c Config) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return WriteConfig(f, c)
}
