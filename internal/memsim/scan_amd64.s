#include "textflag.h"

// func scan16(keys, stamps *uint64, key uint64) (way int, least uint64)
//
// Four VPCMPEQQ compare the key with the set's 16 keys; their sign masks
// make a 16-bit way mask, whose lowest set bit is the way. Without a match
// a min-tree over the 16 stamps (VPCMPGTQ picks, VPBLENDVB keeps the
// smaller of each pair) folds 4 lanes of 4 into one: the least stamp.
TEXT ·scan16(SB), NOSPLIT, $0-40
	MOVQ	keys+0(FP), SI
	MOVQ	stamps+8(FP), DI
	VPBROADCASTQ	key+16(FP), Y0
	VPCMPEQQ	0(SI), Y0, Y1
	VPCMPEQQ	32(SI), Y0, Y2
	VPCMPEQQ	64(SI), Y0, Y3
	VPCMPEQQ	96(SI), Y0, Y4
	VMOVMSKPD	Y1, AX
	VMOVMSKPD	Y2, BX
	VMOVMSKPD	Y3, CX
	VMOVMSKPD	Y4, DX
	SHLL	$4, BX
	SHLL	$8, CX
	SHLL	$12, DX
	ORL	BX, AX
	ORL	CX, AX
	ORL	DX, AX
	JZ	miss
	BSFL	AX, AX
	MOVQ	AX, way+24(FP)
	MOVQ	$0, least+32(FP)
	VZEROUPPER
	RET

miss:
	VMOVDQU	0(DI), Y1
	VMOVDQU	32(DI), Y2
	VMOVDQU	64(DI), Y3
	VMOVDQU	96(DI), Y4
	VPCMPGTQ	Y2, Y1, Y5
	VPBLENDVB	Y5, Y2, Y1, Y1
	VPCMPGTQ	Y4, Y3, Y5
	VPBLENDVB	Y5, Y4, Y3, Y3
	VPCMPGTQ	Y3, Y1, Y5
	VPBLENDVB	Y5, Y3, Y1, Y1
	VEXTRACTI128	$1, Y1, X2
	VPCMPGTQ	X2, X1, X5
	VPBLENDVB	X5, X2, X1, X1
	VPSHUFD	$0x4e, X1, X2
	VPCMPGTQ	X2, X1, X5
	VPBLENDVB	X5, X2, X1, X1
	VMOVQ	X1, AX
	MOVQ	$-1, way+24(FP)
	MOVQ	AX, least+32(FP)
	VZEROUPPER
	RET

// func hasAVX2() bool
//
// AVX2 needs CPUID leaf 7 (EBX bit 5), AVX and OSXSAVE (leaf 1, ECX bits
// 28 and 27), and XCR0 showing the OS saves XMM and YMM state (bits 1, 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB	$0, ret+0(FP)
	XORL	AX, AX
	XORL	CX, CX
	CPUID
	CMPL	AX, $7
	JLT	done
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x18000000, CX
	CMPL	CX, $0x18000000
	JNE	done
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	done
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	BTL	$5, BX
	JCC	done
	MOVB	$1, ret+0(FP)
done:
	RET
