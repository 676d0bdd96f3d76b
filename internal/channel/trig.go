// The reduction constants, polynomial coefficients and evaluation
// order in this file are those of the Go standard library's
// math/sin.go:
//
//	Copyright 2011 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the Go distribution's LICENSE file.
//
// which in turn is a translation of sin.c from the Cephes Math
// Library Release 2.8: June, 2000, Copyright 1984, 1987, 1989, 1992,
// 2000 by Stephen L. Moshier, distributed with the note "Some software
// in this archive may be from the book Methods and Programs for
// Mathematical Functions (Prentice-Hall or Simon & Schuster
// International, 1989) or from the Cephes Mathematical Library, a
// commercial product. In either event, it is copyrighted by the
// author. What you see here may be used freely but it comes with no
// support or guarantee."

package channel

import "math"

// cos and sin return the bits math.Cos and math.Sin return, for every
// argument. They run math/sin.go's arithmetic — the same Cody–Waite
// reduction, coefficients, Horner chain and tail expressions, each
// kept in stdlib's textual shape so a target that fuses multiply-adds
// fuses the same pairs — but every choice stdlib makes with a
// data-dependent branch (octant rounding, which polynomial, which
// sign) is made with integer arithmetic instead. gainDB feeds 16
// unrelated arguments per call, so those branches mispredict; here the
// one branch left is the range check, which the model never takes.

const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,

	// trigMax is math's reduceThreshold: from here up Cody–Waite loses
	// too many bits and math switches to Payne–Hanek reduction.
	trigMax = 1 << 29

	signBit = 1 << 63
)

// trigCoef[0] is math's _sin, trigCoef[1] its _cos.
var trigCoef = [2][6]float64{
	{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	},
	{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	},
}

// trigKernel returns sin(x + shift·π/2), shift 0 or 1, with the bits
// math.Sin(x) and math.Cos(x) have. trig_amd64.s runs the same
// operations four lanes at a time; a change here is a change there,
// and TestTrigVecMatchesMath holds both to math.
//
//outran:allocfree
func trigKernel(x float64, shift uint64) float64 {
	ax := math.Abs(x)
	if !(ax < trigMax) { // also NaN and ±Inf
		if shift == 0 {
			return math.Sin(x)
		}
		return math.Cos(x)
	}
	j := uint64(ax * (4 / math.Pi)) // integer part of x/(Pi/4)
	j += j & 1                      // map zeros to origin
	y := float64(j)
	z := ((ax - y*pi4A) - y*pi4B) - y*pi4C // Extended precision modular arithmetic

	// |x| = z + q·π/2 with z in [-π/4, π/4]; quadrants 0..3 of the
	// shifted argument are sin z, cos z, -sin z, -cos z. The sine is
	// odd, so it starts from x's own sign bit; the cosine is even.
	q := j>>1 + shift
	sign := q<<62 ^ math.Float64bits(x)&(shift-1)
	c := &trigCoef[q&1]
	zz := z * z
	p := ((((((c[0]*zz)+c[1])*zz+c[2])*zz+c[3])*zz+c[4])*zz + c[5])
	s := math.Float64bits(z + z*zz*p)
	k := math.Float64bits(1.0 - 0.5*zz + zz*zz*p)
	mask := -(q & 1)
	return math.Float64frombits((s&^mask | k&mask) ^ sign&signBit)
}

// cos is math.Cos, bit for bit.
func cos(x float64) float64 { return trigKernel(x, 1) }

// sin is math.Sin, bit for bit, including sin(-0) = -0.
func sin(x float64) float64 { return trigKernel(x, 0) }
