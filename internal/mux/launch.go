package mux

import (
	"context"
	"fmt"
	"sync"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/node"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/wireproto"
)

// Population is one process's share of a networked population as Launch
// laid it out: its participants in index order, and the hosts they share
// listeners on (none when every participant has a listener of its own).
type Population struct {
	first int
	nodes []*node.Node
	hosts []*Host
}

// Launch stands up participants [first, first+count) of a population of
// shared.N. Each is provisioned from the shared template with its own
// Index and its own series, rows.Row(Index). group is how many
// participants share a listener: group <= 1 gives each one a TCP listener
// of its own (node.New); larger values put them on Hosts of group virtual
// nodes, the last host holding the remainder.
//
// The template's Listen and Bootstrap go to the first listener; every
// later listener takes a fresh loopback port and bootstraps at the first.
// The template's Proto.Observer goes to the first participant only. each,
// when set, adjusts one participant's configuration (fault dialer, crash
// hook, journal) right before it is built; cfg.Dialer then holds the
// shape's default — nil (TCP) for a listener of its own, the host's
// Transport for a virtual node. A State that each attaches is closed if
// the participant cannot be built. On any error everything already built
// is closed.
func Launch(shared node.Config, rows *timeseries.Dataset, first, count, group int, each func(cfg *node.Config) error) (*Population, error) {
	if first < 0 || count < 1 || first+count > shared.N {
		return nil, fmt.Errorf("mux: participants %d..%d outside a population of %d", first, first+count-1, shared.N)
	}
	p := &Population{first: first}
	if err := p.launch(shared, rows, count, group, each); err != nil {
		_ = p.Close()
		return nil, err
	}
	return p, nil
}

func (p *Population) launch(shared node.Config, rows *timeseries.Dataset, count, group int, each func(cfg *node.Config) error) error {
	obs := shared.Proto.Observer
	shared.Proto.Observer = core.Observer{}
	var host *Host
	for k := 0; k < count; k++ {
		i := p.first + k
		if group > 1 && k%group == 0 {
			h, err := NewHost(shared, rows.Dim())
			if err != nil {
				return fmt.Errorf("mux: host for node %d: %w", i, err)
			}
			p.hosts = append(p.hosts, h)
			host = h
		}
		cfg := shared
		cfg.Index, cfg.Series = i, rows.Row(i)
		if k == 0 {
			cfg.Proto.Observer = obs
		}
		if host != nil && cfg.Dialer == nil {
			cfg.Dialer = host.Transport()
		}
		if each != nil {
			if err := each(&cfg); err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
		}
		var nd *node.Node
		var err error
		if host != nil {
			nd, err = host.AddNode(cfg)
		} else {
			nd, err = node.New(cfg)
		}
		if err != nil {
			if cfg.State != nil {
				_ = cfg.State.Close()
			}
			return fmt.Errorf("node %d: %w", i, err)
		}
		p.nodes = append(p.nodes, nd)
		if k == 0 {
			shared.Listen, shared.Bootstrap = "", p.Addr()
		}
	}
	return nil
}

// Nodes returns the participants in index order, from the first one on.
func (p *Population) Nodes() []*node.Node { return p.nodes }

// Addr returns the first listener's address, the one every later
// listener bootstraps at.
func (p *Population) Addr() string {
	if len(p.hosts) > 0 {
		return p.hosts[0].Addr()
	}
	return p.nodes[0].Addr()
}

// Join waits until the first participant's roster covers the population
// (Run joins on its own; Join lets a caller report the roster first).
func (p *Population) Join() error { return p.hostErr(p.nodes[0].Join()) }

// Run runs every participant under ctx and returns their results in
// index order. A cancelled ctx returns ctx.Err(); otherwise the first
// participant that failed names the error.
func (p *Population) Run(ctx context.Context) ([]*node.Result, error) {
	results := make([]*node.Result, len(p.nodes))
	errs := make([]error, len(p.nodes))
	var wg sync.WaitGroup
	for k, nd := range p.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k], errs[k] = nd.RunContext(ctx)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for k, err := range errs {
		if err != nil {
			return nil, p.hostErr(fmt.Errorf("node %d: %w", p.first+k, err))
		}
	}
	return results, nil
}

// hostErr prefers a host's sticky membership refusal to err, the symptom
// it causes: virtual nodes whose host was refused time out joining.
func (p *Population) hostErr(err error) error {
	if err == nil {
		return nil
	}
	for _, h := range p.hosts {
		if herr := h.Err(); herr != nil {
			return herr
		}
	}
	return err
}

// Counters sums the wire counters of every participant and the hosts'
// own membership traffic.
func (p *Population) Counters() wireproto.Counters {
	var c wireproto.Counters
	for _, nd := range p.nodes {
		c.Add(nd.Counters())
	}
	for _, h := range p.hosts {
		c.Add(h.Counters())
	}
	return c
}

// Close shuts every participant and host down. It is idempotent.
func (p *Population) Close() error {
	var err error
	for _, nd := range p.nodes {
		if cerr := nd.Close(); err == nil {
			err = cerr
		}
	}
	for _, h := range p.hosts {
		if cerr := h.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
