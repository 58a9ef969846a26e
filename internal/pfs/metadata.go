package pfs

import (
	"sais/internal/netsim"
	"sais/internal/sim"
	"sais/internal/units"
)

// MetadataConfig sizes the metadata server.
type MetadataConfig struct {
	NIC        netsim.NICConfig
	RequestCPU units.Time // per layout query
}

// DefaultMetadataConfig models the head-node metadata service.
func DefaultMetadataConfig(rate units.Rate) MetadataConfig {
	return MetadataConfig{
		NIC:        netsim.DefaultNICConfig(rate),
		RequestCPU: 200 * units.Microsecond,
	}
}

// MetadataServer answers layout queries at file open — the MDS hop that
// contributes to TR, the paper's network-and-server time.
type MetadataServer struct {
	nic    *netsim.NIC
	cpu    *sim.Server
	layout func(FileID) Layout
	serve  func(*LayoutRequest)
}

// NewMetadataServer builds the MDS on node id; layout resolves a file's
// striping (the simulator's stand-in for the PVFS metadata store).
func NewMetadataServer(eng *sim.Engine, fab *netsim.Fabric, id netsim.NodeID, cfg MetadataConfig, layout func(FileID) Layout) *MetadataServer {
	m := &MetadataServer{
		nic:    netsim.NewNIC(eng, id, cfg.NIC),
		cpu:    sim.NewServer(eng),
		layout: layout,
	}
	fab.Attach(m.nic)
	m.nic.SetInterruptHandler(m.onInterrupt)
	reqCPU := cfg.RequestCPU
	m.serve = func(q *LayoutRequest) {
		m.cpu.Submit(reqCPU, func(units.Time) {
			m.nic.Send(q.Client, LayoutReplySize, netsim.AffHint{}, &LayoutReply{
				Tag:    q.Tag,
				File:   q.File,
				Layout: m.layout(q.File),
			})
		})
	}
	return m
}

func (m *MetadataServer) onInterrupt(q int, _ units.Time) {
	for _, f := range m.nic.Drain(q) {
		if q, ok := f.Body.(*LayoutRequest); ok {
			m.serve(q)
		}
		m.nic.Free(f)
	}
}
