package main

import (
	"fmt"
	"time"

	"repro/internal/imagex"
	"repro/internal/ocr"
	"repro/internal/photodna"
)

// Kernel timings. Each kernel runs on inputs generated from the
// workload seed, in rounds of a fixed number of calls; the reported
// figure is the median round's time per call, so a stray pause in one
// round does not move it.

const (
	kernelRounds = 5
	imageSize    = 48 // synth's default model-image side
	packImages   = 12
)

// perCall times rounds of calls calls each and returns the median
// round's microseconds per call.
func perCall(calls int, fn func()) float64 {
	rounds := make([]float64, kernelRounds)
	for r := range rounds {
		start := time.Now()
		for range calls {
			fn()
		}
		rounds[r] = float64(time.Since(start)) / float64(time.Microsecond) / float64(calls)
	}
	return median(rounds)
}

// kernelImages renders a pack's worth of model images from the seed.
func kernelImages(seed uint64) []*imagex.Image {
	ims := make([]*imagex.Image, packImages)
	for i := range ims {
		ims[i] = imagex.GenModel(seed, i, imagex.Pose(i%3), imageSize)
	}
	return ims
}

// proofScreenshot renders an earnings-proof-like dashboard screenshot
// from the seed: the OCR kernel's input.
func proofScreenshot(seed uint64) *imagex.Image {
	r := newRNG(seed)
	lines := []string{"PAYPAL DASHBOARD", fmt.Sprintf("TOTAL: %d.%02d USD", 100+r.intn(900), r.intn(100))}
	for range 6 {
		lines = append(lines, fmt.Sprintf("TX: %d.%02d ON %02d/%02d/2016",
			5+r.intn(95), r.intn(100), 1+r.intn(12), 1+r.intn(28)))
	}
	w := 0
	for _, l := range lines {
		w = max(w, imagex.TextWidth(l, 1)+6)
	}
	return imagex.GenScreenshot(seed, lines, w, imagex.LineHeight(1)*len(lines)+6)
}

// measureKernels records the four kernel timings into o.
func measureKernels(o *outcome, seed uint64) error {
	ims := kernelImages(seed)
	zip, err := imagex.EncodePackZip(ims)
	if err != nil {
		return fmt.Errorf("encode pack: %w", err)
	}
	if got, err := imagex.DecodePackZip(zip); err != nil || len(got) != len(ims) {
		return fmt.Errorf("decode pack: %d images, %v", len(got), err)
	}
	shot := proofScreenshot(seed)
	if w := ocr.Recognize(shot).Words; w == 0 {
		return fmt.Errorf("ocr recognised no words in the proof screenshot")
	}

	o.set("kernel.pack_encode_us", perCall(20, func() { _, _ = imagex.EncodePackZip(ims) }), "us", kernelRounds)
	o.set("kernel.pack_decode_us", perCall(40, func() { _, _ = imagex.DecodePackZip(zip) }), "us", kernelRounds)
	i := 0
	o.set("kernel.hash_us", perCall(400, func() {
		photodna.HashImage(ims[i%len(ims)])
		i++
	}), "us", kernelRounds)
	o.set("kernel.ocr_us", perCall(100, func() { ocr.Recognize(shot) }), "us", kernelRounds)
	return nil
}

// calibRounds and calibCalls size one calibration pass: rounds of
// calibCalls photodna.HashImage calls, about 15 ms each on the
// reference machine.
const (
	calibRounds = 9
	calibCalls  = 4000
)

// calibrate runs one pass of the fixed calibration loop —
// photodna.HashImage over one fixed image, independent of the seed —
// and returns each round's time per 2000 calls in milliseconds.
// machine.calib_ms, the yardstick for comparing numbers taken on
// different machines, is the median round of the passes before and
// after the workload.
func calibrate() []float64 {
	im := imagex.GenModel(1, 0, imagex.PoseNude, imageSize)
	rounds := make([]float64, calibRounds)
	for r := range rounds {
		start := time.Now()
		for range calibCalls {
			photodna.HashImage(im)
		}
		rounds[r] = ms(time.Since(start)) * 2000 / calibCalls
	}
	return rounds
}
