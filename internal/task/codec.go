package task

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// ProgramSchemaVersion is the version tag written into every serialized
// program. Bump it when the JSON layout changes incompatibly; the decoder
// rejects versions it does not understand instead of misreading them.
const ProgramSchemaVersion = 1

// The codec gives every Program a versioned JSON form so that any generated
// or synthetic program can be dumped, diffed and replayed. Encoding is
// deterministic: field order is fixed by the struct definitions and maps are
// never serialized, so marshal(unmarshal(marshal(p))) is byte-identical to
// marshal(p) (checked by round-trip tests). Addresses render as hex strings
// to stay readable next to the trace and DMU diagnostics.

type programJSON struct {
	Schema          int          `json:"schema"`
	Name            string       `json:"name"`
	Granularity     int64        `json:"granularity,omitempty"`
	GranularityUnit string       `json:"granularity_unit,omitempty"`
	Regions         []regionJSON `json:"regions"`
}

type regionJSON struct {
	Index            int        `json:"index"`
	SequentialCycles int64      `json:"sequential_cycles"`
	Tasks            []specJSON `json:"tasks"`
}

type specJSON struct {
	ID       ID        `json:"id"`
	Kernel   string    `json:"kernel"`
	Duration int64     `json:"duration"`
	Meta     string    `json:"meta,omitempty"`
	Deps     []depJSON `json:"deps,omitempty"`
}

type depJSON struct {
	Addr string `json:"addr"`
	Size uint64 `json:"size"`
	Dir  string `json:"dir"`
}

// MarshalProgram serializes a valid program to indented, deterministic JSON
// ending in a newline.
func MarshalProgram(p *Program) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("task: cannot marshal nil program")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("task: refusing to marshal invalid program: %w", err)
	}
	out := programJSON{
		Schema:          ProgramSchemaVersion,
		Name:            p.Name,
		Granularity:     p.Granularity,
		GranularityUnit: p.GranularityUnit,
		Regions:         make([]regionJSON, len(p.Regions)),
	}
	for ri, r := range p.Regions {
		rj := regionJSON{
			Index:            r.Index,
			SequentialCycles: r.SequentialCycles,
			Tasks:            make([]specJSON, len(r.Tasks)),
		}
		for ti, t := range r.Tasks {
			sj := specJSON{
				ID:       t.ID,
				Kernel:   t.Kernel,
				Duration: t.Duration,
				Meta:     t.Meta,
			}
			for _, d := range t.Deps {
				sj.Deps = append(sj.Deps, depJSON{
					Addr: "0x" + strconv.FormatUint(d.Addr, 16),
					Size: d.Size,
					Dir:  d.Dir.String(),
				})
			}
			rj.Tasks[ti] = sj
		}
		out.Regions[ri] = rj
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("task: marshal program %s: %w", p.Name, err)
	}
	return append(data, '\n'), nil
}

// UnmarshalProgram decodes a program serialized by MarshalProgram and
// validates it structurally.
func UnmarshalProgram(data []byte) (*Program, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var in programJSON
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("task: decode program: %w", err)
	}
	if in.Schema != ProgramSchemaVersion {
		return nil, fmt.Errorf("task: program schema version %d not supported (want %d)",
			in.Schema, ProgramSchemaVersion)
	}
	p := &Program{
		Name:            in.Name,
		Granularity:     in.Granularity,
		GranularityUnit: in.GranularityUnit,
		Regions:         make([]Region, len(in.Regions)),
	}
	for ri, rj := range in.Regions {
		r := Region{
			Index:            rj.Index,
			SequentialCycles: rj.SequentialCycles,
			Tasks:            make([]*Spec, len(rj.Tasks)),
		}
		for ti, sj := range rj.Tasks {
			spec := &Spec{
				ID:       sj.ID,
				Kernel:   sj.Kernel,
				Duration: sj.Duration,
				Region:   rj.Index,
				Meta:     sj.Meta,
			}
			for _, dj := range sj.Deps {
				addr, err := strconv.ParseUint(dj.Addr, 0, 64)
				if err != nil {
					return nil, fmt.Errorf("task: program %s task %d: bad dependence address %q",
						in.Name, sj.ID, dj.Addr)
				}
				dir, err := parseDir(dj.Dir)
				if err != nil {
					return nil, fmt.Errorf("task: program %s task %d: %w", in.Name, sj.ID, err)
				}
				spec.Deps = append(spec.Deps, Dep{Addr: addr, Size: dj.Size, Dir: dir})
			}
			r.Tasks[ti] = spec
		}
		p.Regions[ri] = r
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("task: decoded program invalid: %w", err)
	}
	return p, nil
}

// parseDir inverts Dir.String.
func parseDir(s string) (Dir, error) {
	switch s {
	case "in":
		return In, nil
	case "out":
		return Out, nil
	case "inout":
		return InOut, nil
	default:
		return 0, fmt.Errorf("unknown dependence direction %q (want in, out or inout)", s)
	}
}

// WriteProgramFile serializes the program to a file.
func WriteProgramFile(path string, p *Program) error {
	data, err := MarshalProgram(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadProgramFile decodes a program from a file written by WriteProgramFile.
func ReadProgramFile(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("task: read program file: %w", err)
	}
	p, err := UnmarshalProgram(data)
	if err != nil {
		return nil, fmt.Errorf("task: %s: %w", path, err)
	}
	return p, nil
}
