package runtime

import (
	"encoding/json"
	"fmt"

	"everest/internal/dataset"
	"everest/internal/platform"
)

// Deployment is the LEXIS-style workflow deployment descriptor (paper §IV):
// which tasks are marked for FPGA offload and which bitstreams the cluster
// must stage before execution.
type Deployment struct {
	Workflow  string            `json:"workflow"`
	Offloaded map[string]string `json:"offloaded"` // task -> bitstream ID
	Nodes     []string          `json:"nodes"`
}

// MarkOffload marks a task for FPGA execution with the given bitstream.
func (d *Deployment) MarkOffload(task, bitstreamID string) {
	if d.Offloaded == nil {
		d.Offloaded = make(map[string]string)
	}
	d.Offloaded[task] = bitstreamID
}

// JSON renders the descriptor (the artifact LEXIS stores).
func (d *Deployment) JSON() (string, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Stage programs every offloaded bitstream onto the first matching device
// of each listed node, returning the total modelled staging time. It also
// rewrites the workflow's task specs to request the FPGA: on a copy that
// replaces them, with bitstream needs rebuilt from the copy, so engines
// and fleets already serving the workflow keep what they were handed.
func (d *Deployment) Stage(w *Workflow, c *platform.Cluster, reg *platform.Registry) (float64, error) {
	total := 0.0
	specs := append([]TaskSpec(nil), w.specs...)
	for task, bsID := range d.Offloaded {
		i, ok := w.index[task]
		if !ok {
			return 0, fmt.Errorf("runtime: deployment references unknown task %q", task)
		}
		bs, err := reg.Get(bsID)
		if err != nil {
			return 0, err
		}
		staged := false
		for _, nodeName := range d.Nodes {
			n := c.FindNode(nodeName)
			if n == nil {
				return 0, fmt.Errorf("runtime: deployment references unknown node %q", nodeName)
			}
			for idx := range n.Devices {
				if dt, err := n.Program(idx, -1, bs); err == nil {
					total += dt
					staged = true
					break
				}
			}
			if staged {
				break
			}
		}
		if !staged {
			return 0, fmt.Errorf("runtime: no device in the deployment can host bitstream %q", bsID)
		}
		specs[i].NeedsFPGA = true
		specs[i].BitstreamID = bsID
	}
	var needs []dataset.Part
	for i := range specs {
		needs = appendNeed(needs, &specs[i])
	}
	w.specs, w.needs = specs, needs
	return total, nil
}
