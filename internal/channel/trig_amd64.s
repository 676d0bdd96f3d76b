// The reduction constants, polynomial coefficients and evaluation
// order in this file are those of trig.go's trigKernel, which takes
// them from the Go standard library's math/sin.go:
//
//	Copyright 2011 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the Go distribution's LICENSE file.
//
// which in turn is a translation of sin.c from the Cephes Math
// Library Release 2.8: June, 2000, Copyright 1984, 1987, 1989, 1992,
// 2000 by Stephen L. Moshier; trig.go carries the archive's note.

#include "go_asm.h"
#include "textflag.h"

// VEC is a four-lane constant: even in lanes 0 and 2, odd in 1 and 3.
#define VEC(name, even, odd) \
	DATA name<>+0(SB)/8, $even; \
	DATA name<>+8(SB)/8, $odd; \
	DATA name<>+16(SB)/8, $even; \
	DATA name<>+24(SB)/8, $odd; \
	GLOBL name<>(SB), RODATA|NOPTR, $32
#define VEC1(name, v) VEC(name, v, v)

VEC1(absMask, 0x7fffffffffffffff)
VEC1(signBit, 0x8000000000000000)
VEC1(trigMax, 0x41c0000000000000) // 2^29
VEC1(fourOverPi, 0x3ff45f306dc9c883)
VEC1(pi4A, 0x3fe921fb40000000)
VEC1(pi4B, 0x3e64442d00000000)
VEC1(pi4C, 0x3ce8469898cc5170)
VEC1(half, 0x3fe0000000000000)
VEC1(one, 0x3ff0000000000000)
VEC1(shift0, 0)                  // int32 quadrant shifts: the sine's
VEC1(shift1, 0x0000000100000001) // the cosine's; also int32 ones

// trigCoef[0][k] (sine) beside trigCoef[1][k] (cosine) in each 128-bit
// half, where VPERMILPD picks one per lane.
VEC(coef0, 0x3de5d8fd1fd19ccd, 0xbda8fa49a0861a9b)
VEC(coef1, 0xbe5ae5e5a9291f5d, 0x3e21ee9d7b4e3f05)
VEC(coef2, 0x3ec71de3567d48a1, 0xbe927e4f7eac4bc6)
VEC(coef3, 0xbf2a01a019bfdf03, 0x3efa01a019c844f5)
VEC(coef4, 0x3f8111111110f7d0, 0xbf56c16c16c14f91)
VEC(coef5, 0xbfc5555555555548, 0x3fa555555555554b)

// TRIG is trigKernel on four lanes: the Go's operations in the Go's
// order, every multiply and every add its own instruction (no FMA).
// It forms x = omega[n:n+4]*ts + phase[n:n+4] with ts in Y9, ORs the
// lanes that fail |x| < 2^29 into BX, and stores sin(x + shift·π/2) at
// out(DI). seed is the register whose sign bit starts the result's
// sign: x (Y0) for the sine, |x| (Y1) for the cosine. Y10..Y15 hold
// coef0..coef5.
#define TRIG(omega, phase, out, shift, seed) \
	VMULPD      omega(SI), Y9, Y0;                                              \
	VADDPD      phase(SI), Y0, Y0;          /* x */                             \
	VANDPD      absMask<>(SB), Y0, Y1;      /* ax */                            \
	VCMPPD      $5, trigMax<>(SB), Y1, Y2;  /* !(ax < trigMax), NaN included */ \
	VMOVMSKPD   Y2, AX;                                                         \
	ORL         AX, BX;                                                         \
	VMULPD      fourOverPi<>(SB), Y1, Y2;                                       \
	VCVTTPD2DQY Y2, X2;                     /* j, below 2^30 */                 \
	VPAND       shift1<>(SB), X2, X3;                                           \
	VPADDD      X3, X2, X2;                 /* j += j&1 */                      \
	VCVTDQ2PD   X2, Y3;                     /* y */                             \
	VMULPD      pi4A<>(SB), Y3, Y4;                                             \
	VSUBPD      Y4, Y1, Y6;                                                     \
	VMULPD      pi4B<>(SB), Y3, Y4;                                             \
	VSUBPD      Y4, Y6, Y6;                                                     \
	VMULPD      pi4C<>(SB), Y3, Y4;                                             \
	VSUBPD      Y4, Y6, Y6;                 /* z */                             \
	VPSRLD      $1, X2, X2;                                                     \
	VPADDD      shift<>(SB), X2, X2;                                            \
	VPMOVZXDQ   X2, Y2;                     /* q */                             \
	VPSLLQ      $1, Y2, Y8;                 /* q&1 where VPERMILPD reads it */  \
	VPSLLQ      $63, Y2, Y5;                /* q&1 where VBLENDVPD reads it */  \
	VPSLLQ      $62, Y2, Y2;                                                    \
	VXORPD      seed, Y2, Y2;                                                   \
	VANDPD      signBit<>(SB), Y2, Y2;      /* sign */                          \
	VMULPD      Y6, Y6, Y3;                 /* zz */                            \
	VPERMILPD   Y8, Y10, Y4;                /* c[0] */                          \
	VMULPD      Y3, Y4, Y4;                                                     \
	VPERMILPD   Y8, Y11, Y7;                /* c[1] */                          \
	VADDPD      Y7, Y4, Y4;                                                     \
	VMULPD      Y3, Y4, Y4;                                                     \
	VPERMILPD   Y8, Y12, Y7;                /* c[2] */                          \
	VADDPD      Y7, Y4, Y4;                                                     \
	VMULPD      Y3, Y4, Y4;                                                     \
	VPERMILPD   Y8, Y13, Y7;                /* c[3] */                          \
	VADDPD      Y7, Y4, Y4;                                                     \
	VMULPD      Y3, Y4, Y4;                                                     \
	VPERMILPD   Y8, Y14, Y7;                /* c[4] */                          \
	VADDPD      Y7, Y4, Y4;                                                     \
	VMULPD      Y3, Y4, Y4;                                                     \
	VPERMILPD   Y8, Y15, Y7;                /* c[5] */                          \
	VADDPD      Y7, Y4, Y4;                 /* p */                             \
	VMULPD      Y3, Y6, Y7;                                                     \
	VMULPD      Y4, Y7, Y7;                                                     \
	VADDPD      Y7, Y6, Y7;                 /* s = z + (z*zz)*p */              \
	VMULPD      half<>(SB), Y3, Y8;                                             \
	VMOVUPD     one<>(SB), Y1;                                                  \
	VSUBPD      Y8, Y1, Y8;                                                     \
	VMULPD      Y3, Y3, Y1;                                                     \
	VMULPD      Y4, Y1, Y1;                                                     \
	VADDPD      Y1, Y8, Y8;                 /* k = (1 - 0.5*zz) + (zz*zz)*p */  \
	VBLENDVPD   Y5, Y8, Y7, Y7;                                                 \
	VXORPD      Y2, Y7, Y7;                                                     \
	VMOVUPD     Y7, out(DI)

// func trigJakesAVX2(ts float64, j *jakes, out *[16]float64) bool
TEXT ·trigJakesAVX2(SB), NOSPLIT, $0-25
	VBROADCASTSD ts+0(FP), Y9
	MOVQ         j+8(FP), SI
	MOVQ         out+16(FP), DI
	VMOVUPD      coef0<>(SB), Y10
	VMOVUPD      coef1<>(SB), Y11
	VMOVUPD      coef2<>(SB), Y12
	VMOVUPD      coef3<>(SB), Y13
	VMOVUPD      coef4<>(SB), Y14
	VMOVUPD      coef5<>(SB), Y15
	XORL         BX, BX
	TRIG(jakes_omega+0, jakes_phasesI+0, 0, shift1, Y1)
	TRIG(jakes_omega+32, jakes_phasesI+32, 32, shift1, Y1)
	TRIG(jakes_omega+0, jakes_phasesQ+0, 64, shift0, Y0)
	TRIG(jakes_omega+32, jakes_phasesQ+32, 96, shift0, Y0)
	VZEROUPPER
	TESTL        BX, BX
	SETEQ        ret+24(FP)
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7 // highest basic leaf
	JLT    done
	MOVL   $1, AX
	CPUID
	ANDL   $0x18000000, CX // OSXSAVE and AVX
	CMPL   CX, $0x18000000
	JNE    done
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX // the OS saves xmm and ymm state
	CMPL   AX, $6
	JNE    done
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	SHRL   $5, BX // AVX2
	ANDL   $1, BX
	MOVB   BX, ret+0(FP)
done:
	RET
