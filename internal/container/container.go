// Package container is the Docker 1.2 baseline of Figure 9b: an
// inetd-triggered container runtime whose start latency is dominated by
// storage I/O. The paper measures three configurations on the
// Cubieboard2 — ext4 on the SD card (native and under Xen dom0) and
// ext4 on a loopback file in tmpfs, the last of which "generated buffer
// IO, ext4 and VFS errors in a significant fraction of tests resulting
// in early process termination".
package container

import (
	"errors"
	"fmt"
	"time"

	"jitsu/internal/sim"
)

// ErrEarlyTermination models the loopback-on-tmpfs failure mode the
// paper observed.
var ErrEarlyTermination = errors.New("container: early process termination (buffer IO/ext4/VFS error)")

// Storage models a backing store for the container's layered filesystem.
type Storage struct {
	Name string
	// ReadMBps is the sequential read rate (SD card ≈ 10 MB/s).
	ReadMBps float64
	// PerLayerSetup is device-mapper/mount overhead per image layer.
	PerLayerSetup sim.Dist
	// FaultRate is the probability a start dies with
	// ErrEarlyTermination (the tmpfs-loopback pathology).
	FaultRate float64
}

// SDCard is the Cubieboard's 10MB/s SD card.
func SDCard() Storage {
	return Storage{
		Name:          "ext4-on-sd",
		ReadMBps:      10,
		PerLayerSetup: sim.Exponential{Base: 25 * time.Millisecond, Mean: 8 * time.Millisecond},
	}
}

// TmpfsLoopback is an ext4 image looped over tmpfs — fast but fragile
// ("device-mapper in Linux 3.16 does not work directly over tmpfs").
func TmpfsLoopback() Storage {
	return Storage{
		Name:          "ext4-on-tmpfs",
		ReadMBps:      400,
		PerLayerSetup: sim.Exponential{Base: 12 * time.Millisecond, Mean: 4 * time.Millisecond},
		FaultRate:     0.09,
	}
}

// Image is a layered container image.
type Image struct {
	Name string
	// LayerBytes are the bytes each layer reads at start (metadata,
	// binaries, dynamic loader work...).
	LayerBytes []int64
	// EntrypointExec is the cost of fork+exec of the entrypoint.
	EntrypointExec sim.Dist
}

// WebServerImage approximates the small web-server image of the
// evaluation: a few layers totalling ~5 MB of cold reads.
func WebServerImage() Image {
	return Image{
		Name:           "httpd",
		LayerBytes:     []int64{2 << 20, 2 << 20, 1 << 20},
		EntrypointExec: sim.Exponential{Base: 50 * time.Millisecond, Mean: 15 * time.Millisecond},
	}
}

// Runtime is the Docker daemon stand-in.
type Runtime struct {
	Eng     *sim.Engine
	Storage Storage
	// UnderXen adds dom0 virtualisation overhead to CPU-bound steps and
	// I/O ("Docker in Xen dom0").
	UnderXen bool

	// DaemonRPC is the docker-cli→daemon round trip plus daemon
	// bookkeeping; Docker 1.2 on a Cubieboard spends several hundred ms
	// here before any I/O happens.
	DaemonRPC sim.Dist
	// NamespaceSetup covers clone(2) with new namespaces and cgroups.
	NamespaceSetup sim.Dist
	// NetworkSetup covers the veth pair and bridge attach.
	NetworkSetup sim.Dist

	// Starts and Failures count outcomes.
	Starts, Failures uint64
}

// NewRuntime builds a runtime with Docker-1.2-on-ARM cost constants,
// calibrated so that "container start times remained at 600ms or
// higher" on tmpfs and "at least 1.1s (native Linux) or 1.2s (under
// Xen)" on the SD card.
func NewRuntime(eng *sim.Engine, storage Storage, underXen bool) *Runtime {
	return &Runtime{
		Eng: eng, Storage: storage, UnderXen: underXen,
		DaemonRPC:      sim.Exponential{Base: 350 * time.Millisecond, Mean: 45 * time.Millisecond},
		NamespaceSetup: sim.Exponential{Base: 85 * time.Millisecond, Mean: 15 * time.Millisecond},
		NetworkSetup:   sim.Exponential{Base: 65 * time.Millisecond, Mean: 12 * time.Millisecond},
	}
}

// xenFactor inflates costs when running inside dom0.
func (r *Runtime) xenFactor() float64 {
	if r.UnderXen {
		return 1.09
	}
	return 1
}

// Container is a started container.
type Container struct {
	Image     Image
	StartedAt sim.Duration
	Elapsed   sim.Duration
	stopped   bool
}

// Stop releases the container (instantaneous for our purposes: the
// paper only measures start).
func (c *Container) Stop() { c.stopped = true }

// Start launches a container from img; done fires with the container or
// an injected storage failure. The five costs — daemon round trip,
// storage setup, namespaces, network, the entrypoint's exec — are drawn
// up front in pipeline order, the storage fault check right after the
// first: a fault ends the start when the round trip is over.
func (r *Runtime) Start(img Image, done func(*Container, error)) {
	r.Starts++
	eng := r.Eng
	rng := eng.Rand()
	f := r.xenFactor()
	scale := func(d sim.Duration) sim.Duration { return sim.Duration(float64(d) * f) }

	elapsed := scale(r.DaemonRPC.Sample(rng))
	if r.Storage.FaultRate > 0 && rng.Float64() < r.Storage.FaultRate {
		eng.After(elapsed, func() {
			r.Failures++
			done(nil, ErrEarlyTermination)
		})
		return
	}
	var storage sim.Duration
	for _, layer := range img.LayerBytes {
		storage += r.Storage.PerLayerSetup.Sample(rng)
		ioTime := float64(layer) / (r.Storage.ReadMBps * 1e6) * float64(time.Second)
		storage += sim.Duration(ioTime)
	}
	elapsed += scale(storage)
	elapsed += scale(r.NamespaceSetup.Sample(rng))
	elapsed += scale(r.NetworkSetup.Sample(rng))
	elapsed += scale(img.EntrypointExec.Sample(rng))
	c := &Container{Image: img, StartedAt: eng.Now(), Elapsed: elapsed}
	eng.After(elapsed, func() { done(c, nil) })
}

// InetdService triggers a fresh container per incoming request, the way
// the paper drives Docker for Figure 9b ("Docker ... container startup
// triggered from inetd").
type InetdService struct {
	Runtime *Runtime
	Image   Image
	// RequestOverhead is the network+handshake time around the start
	// (the measured quantity is an HTTP response time).
	RequestOverhead sim.Dist
}

// HandleRequest starts a container and reports the total response time.
func (s *InetdService) HandleRequest(done func(total sim.Duration, err error)) {
	eng := s.Runtime.Eng
	begin := eng.Now()
	over := sim.Duration(0)
	if s.RequestOverhead != nil {
		over = s.RequestOverhead.Sample(eng.Rand())
	}
	s.Runtime.Start(s.Image, func(c *Container, err error) {
		if err != nil {
			done(eng.Now()-begin+over, err)
			return
		}
		// Serve the response, then the container exits (inetd-style).
		eng.After(over, func() {
			c.Stop()
			done(eng.Now()-begin, nil)
		})
	})
}

func (r *Runtime) String() string {
	mode := "native"
	if r.UnderXen {
		mode = "xen-dom0"
	}
	return fmt.Sprintf("docker[%s %s]", r.Storage.Name, mode)
}
