"""Golden report digests: the exit code and the sha256 of standard output of
okv command lines, with JSON reports unless a line asks for text.

Every command runs on every fixture, and the table adds the lines that load
the degeneration, restriction, compatibility and saturation paths at other
degrees, every kind of cap exit, jobs over F_32003 (`Fp:<fixture>` is a
job file holding that fixture over F_32003), a job whose description
needs JSON escapes (`Esc:<fixture>`), a job whose generators repeat and
decompose (`Gens:<fixture>`), one with a negative value coordinate
(`Neg:<fixture>`) and one whose body is lower-dimensional, so that its
halfspaces carry the equality pair of its affine hull (`Flat:<fixture>`), and
one whose sections have rational coefficients (`Rat:<fixture>`).
A successful line records the stdout digest; a failing line prints no
report and records its stderr message instead.  The `--format text` rows
pin the plain-text renderer the same way.  A change that keeps reports byte-identical keeps every row; a
change meant to alter a report re-records the rows it alters.
"""

import hashlib
import json

import pytest

from okv.cli import CHECKS, main
from okv.jobs import fixture_names, jobspec_to_dict, load_fixture

# (command line, exit code, stdout sha256 on exit 0 or the stderr line otherwise)
TABLE = [
    ('nu --fixture abelian-trapezoid', 1, 'error: validation: valuations need polynomial sections, not generators'),
    ('body --fixture abelian-trapezoid', 0, '7e6fbc3f81ebc14fde7b74e29d32b7bbb309764f56256a413c4e83a77db45183'),
    ('semigroup --fixture abelian-trapezoid', 0, '55d59cb9e2dc73f98e8ba78fc1d6b328fae76994ae6325d5d321c5a936bacd14'),
    ('degenerate --fixture abelian-trapezoid', 0, '49dfd61fc7c2d7dd937f70787d4f467a9ede21a98d30302c3ec5e3444c2b1ffa'),
    ('check normality --fixture abelian-trapezoid', 0, 'd04ff872b9bcf95acd6f6b28ed720d885e63997d1b07574bf88dce07eb26c224'),
    ('check saturation --fixture abelian-trapezoid', 1, 'error: validation: saturation checks need polynomial sections'),
    ('check restriction --fixture abelian-trapezoid', 1, 'error: validation: restriction checks need polynomial sections'),
    ('check compatibility --fixture abelian-trapezoid', 1, 'error: validation: compatibility checks need polynomial sections'),
    ('nu --fixture bott-samelson-m', 0, '269be324198a6f04f741b027889967f92478eb538ddd4bcc49f9f1a05dabb207'),
    ('body --fixture bott-samelson-m', 0, 'df23437946c2eaf2226e0718774ca7ed6e50d24eac4dec2bf502644f08e76e82'),
    ('semigroup --fixture bott-samelson-m', 0, '6ecf5375529639ef2c3d84819b152cd1fa953027767e0524f34c515118f76236'),
    ('degenerate --fixture bott-samelson-m', 0, 'f7a82e6fcd862a3d79177c752ce269f14c3ceb7c66918e926f8ab0d5cf99d6bf'),
    ('check normality --fixture bott-samelson-m', 0, 'b138653c0689ae007adb499614f86de2d814f486a426e31e7ee431e27d44a83a'),
    ('check saturation --fixture bott-samelson-m', 1, 'error: validation: saturation checks need prescribed orders'),
    ('check restriction --fixture bott-samelson-m', 1, 'error: validation: restriction checks need a restriction index'),
    ('check compatibility --fixture bott-samelson-m', 1, 'error: validation: compatibility checks need subsystem sections'),
    ('nu --fixture bott-samelson-u', 0, 'dee9b9b7372eb79db5a6d67433ae99e9e9f4be96855fc6052edcb64395ed8d70'),
    ('body --fixture bott-samelson-u', 0, '9e6e4a8a1495c1c66a664f6a24b9d1abd5737de3f78533e01de65c0c4d85faff'),
    ('semigroup --fixture bott-samelson-u', 0, '19e6a68a2fe59096fad5f36966bec3a8d0e8e523eb98dc790da1d35ca284986b'),
    ('degenerate --fixture bott-samelson-u', 0, 'e615036086fa5fcfbe8d1e3a2460b2b3943c7302f4c13a4defc2ad7357bbf76d'),
    ('check normality --fixture bott-samelson-u', 0, 'f0b5f8152ac071407839d7ab15c5d5a7a6acf26cc268f6fcfb7f6366d0ed7975'),
    ('check saturation --fixture bott-samelson-u', 1, 'error: validation: saturation checks need prescribed orders'),
    ('check restriction --fixture bott-samelson-u', 1, 'error: validation: restriction checks need a restriction index'),
    ('check compatibility --fixture bott-samelson-u', 1, 'error: validation: compatibility checks need subsystem sections'),
    ('nu --fixture counterexample-p1xp1', 0, 'b17513599998e8e0899f575ff84a077a190011252ce06020a2f5107c40fd2ab2'),
    ('body --fixture counterexample-p1xp1', 0, '71609220304160cdde1408c11a80638d459f78ac950d823955234429f42147a4'),
    ('semigroup --fixture counterexample-p1xp1', 0, '5e597adec57defa5420a75838c13ad257c4567488c96543ac52c51abb129f359'),
    ('degenerate --fixture counterexample-p1xp1', 0, '249fccee315535bcb927d4c7e467a4bbbb6333fd638b7418b214fcf6a844dd91'),
    ('check normality --fixture counterexample-p1xp1', 0, 'dd8e8a45a6917dae54487d084b66e38a200108e64987d598e0f860190d98586b'),
    ('check saturation --fixture counterexample-p1xp1', 1, 'error: validation: saturation checks need prescribed orders'),
    ('check restriction --fixture counterexample-p1xp1', 1, 'error: validation: restriction checks need a restriction index'),
    ('check compatibility --fixture counterexample-p1xp1', 1, 'error: validation: compatibility checks need subsystem sections'),
    ('nu --fixture elliptic-bad', 1, 'error: validation: valuations need polynomial sections, not generators'),
    ('body --fixture elliptic-bad', 0, '7cc671c28fe54322810c592e47576af037c110b51e5210f118104e488fde55e0'),
    ('semigroup --fixture elliptic-bad', 0, '84436d1f5430531beddf4f65a3613140eabb19b744204bdc1e3c0217d3be94fa'),
    ('degenerate --fixture elliptic-bad', 0, 'ab9fbf2a4f6456d43fe78908c478b087094ff63e6f2473c103b22515f6f748e7'),
    ('check normality --fixture elliptic-bad', 0, '32b172eabc17f496aba7f0da3515a4e6eb54ddad0f3e2483c7e20e670ac497a8'),
    ('check saturation --fixture elliptic-bad', 1, 'error: validation: saturation checks need polynomial sections'),
    ('check restriction --fixture elliptic-bad', 1, 'error: validation: restriction checks need polynomial sections'),
    ('check compatibility --fixture elliptic-bad', 1, 'error: validation: compatibility checks need polynomial sections'),
    ('nu --fixture elliptic-good', 1, 'error: validation: valuations need polynomial sections, not generators'),
    ('body --fixture elliptic-good', 0, 'a851aca832d1bbead719538b66af5946264cdd8597a1eb34cc12e9ed7dc7712e'),
    ('semigroup --fixture elliptic-good', 0, '1c8f281ce0384b39823e45fe6936fb883c4c90e7b2e6e1b81c7fb69e4a2b4005'),
    ('degenerate --fixture elliptic-good', 0, 'db6875e4583b42c4ea4a8f5d299b9fa9c3a0f7647ba602f5a175a7a20b26a14f'),
    ('check normality --fixture elliptic-good', 0, '2d0d8f47429ae2e122095b208bb875f781d5521f781b8f887af560010e7e53d6'),
    ('check saturation --fixture elliptic-good', 1, 'error: validation: saturation checks need polynomial sections'),
    ('check restriction --fixture elliptic-good', 1, 'error: validation: restriction checks need polynomial sections'),
    ('check compatibility --fixture elliptic-good', 1, 'error: validation: compatibility checks need polynomial sections'),
    ('nu --fixture hirzebruch-trapezoid', 1, 'error: validation: valuations need polynomial sections, not generators'),
    ('body --fixture hirzebruch-trapezoid', 0, '774a0aeb8c3c3adb92d0e7fec393009ece0516963a7801920258bc159ac077aa'),
    ('semigroup --fixture hirzebruch-trapezoid', 0, 'e131a93b587e68c27a8b15bb6dd6b8616c46fc870d349762abb0b9bcc69c045c'),
    ('degenerate --fixture hirzebruch-trapezoid', 0, '65208d86f89728ee0b0631c500ae0e7d92d7ba0719a9ee8995d7a95d168ac80a'),
    ('check normality --fixture hirzebruch-trapezoid', 0, '6720b476d5e2b3b7cee6493c9486cebbc35fa1b0c756b89b560e571b6d2f8db6'),
    ('check saturation --fixture hirzebruch-trapezoid', 1, 'error: validation: saturation checks need polynomial sections'),
    ('check restriction --fixture hirzebruch-trapezoid', 1, 'error: validation: restriction checks need polynomial sections'),
    ('check compatibility --fixture hirzebruch-trapezoid', 1, 'error: validation: compatibility checks need polynomial sections'),
    ('semigroup --fixture bott-samelson-u --max-degree 9', 0, 'e12faf6d5eab3d268b4616636c1a82c87b92793055de9801777ec661e5884859'),
    ('semigroup --fixture counterexample-p1xp1 --max-degree 12', 0, '1e6cbc22f95c4b2e49c58cfd2ffbcb0f53caf4829c4b6a7ef76f2e87a111c084'),
    ('semigroup --fixture bott-samelson-m --max-degree 6', 0, 'a343b94b30f21e0f01d3661869b9ec8f5782955e10f0a62c54cd333434a765cd'),
    ('body --fixture counterexample-p1xp1 --max-degree 6', 0, 'a64a9db818d998ea0c45f4452e3af07cc4058eb0bf5633d06d07d86ec5b1d234'),
    ('body --fixture counterexample-p1xp1 --max-degree 20', 0, '17279ac548fb935b2b8e2f68a86eeb5aa8762b3fce039025f87947b5684c5a1a'),
    ('body --fixture bott-samelson-m --max-degree 4', 0, '899dab3d0af8ed4510831a0ca2e82701a860fdb516ddbd1abc435864c5aaa8db'),
    ('body --fixture bott-samelson-u --max-degree 6', 0, '8d2db668ef8c43ba5f4b3dbf4f4f5f5fd563f5c93f9c46be135a69e3b3f0c49e'),
    ('body --fixture elliptic-bad --max-degree 9', 0, '2fd8c3d6af1d82f958832dd11e0ad3717f5ad2d9e8505595127cac2fcbc1528c'),
    ('body --fixture hirzebruch-trapezoid --max-degree 5', 0, '2df7e92ff41cd3f85faedac71eb81d105344afffee83c284a4eda4ef4c6574d3'),
    ('body --fixture abelian-trapezoid --max-degree 4', 0, '7cd76e5f5b572d450a01dc09ee49de92bc39c5577c395fb998ca001cebd85787'),
    ('body --fixture elliptic-good --max-degree 6', 0, 'a851aca832d1bbead719538b66af5946264cdd8597a1eb34cc12e9ed7dc7712e'),
    ('check normality --fixture counterexample-p1xp1 --max-degree 5', 0, '6ceaa19d6c560ec42d4327742242c537774d14cb18baa2338833269f44570c6e'),
    ('degenerate --fixture bott-samelson-u --max-degree 6 --relation-degree 2', 0, 'b2ca9f67885166d6d8b31898f4deab3ba025620c547c65fce5d8dfc059771390'),
    ('degenerate --fixture bott-samelson-u --max-degree 2 --relation-degree 4', 0, '7eca16157254eeb6c8bf676601ea257b6fbdcce9ddeba9b95e987fc598db631d'),
    ('degenerate --fixture counterexample-p1xp1 --relation-degree 6', 0, '173d0112050fe3d1235d5f52165977e88a0a6ccf50efe9b2e34f7226119782be'),
    ('degenerate --fixture counterexample-p1xp1 --max-degree 4 --relation-degree 6', 0, 'eedb217670781aaf8523ad2dcc82d95c28b916c49485825a2228aa4f6ee354b3'),
    ('degenerate --fixture counterexample-p1xp1 --max-degree 3 --relation-degree 2', 0, '5c252dac6fbd105be0f647dece7d6919679066a07c4a8830eda0336f990c01c2'),
    ('degenerate --fixture counterexample-p1xp1 --max-degree 6 --relation-degree 6', 0, 'ede587947a2741a5e6c48a7a2a32cb116a6a100cb54c94c8e1bc520cd9977426'),
    ('degenerate --fixture counterexample-p1xp1 --max-degree 6 --relation-degree 6 --cap-monomials 300', 0, 'c9e6acba2e1d24a351ae8124826a5bc51f074986146f10380dea0d4c499eca7a'),
    ('degenerate --fixture bott-samelson-m --max-degree 2 --relation-degree 3', 0, 'c866ad085ee5e2ab10a32155270ad27af31d3f95441b49af425b408b2c6bbba8'),
    ('degenerate --fixture elliptic-bad --max-degree 6', 0, 'ab9fbf2a4f6456d43fe78908c478b087094ff63e6f2473c103b22515f6f748e7'),
    ('degenerate --fixture elliptic-bad --max-degree 8', 0, 'aacf5fe63db62bd2ed6fb96d2426945dcb08601836c59120cba8709622662bce'),
    ('degenerate --fixture elliptic-good --max-degree 6 --relation-degree 6', 0, 'd06caca4be4c8e5d7558577a580bed9b87d5447d7e1f4de22bee52f7ee222118'),
    ('degenerate --fixture hirzebruch-trapezoid --relation-degree 4', 0, '91bc9061f868a34f6d8aa4566c03cd5db6854cae87a652e541f33f0a0af106d1'),
    ('degenerate --fixture elliptic-bad --max-degree 12 --cap-matrix 1000000000', 0, '68bfb3f8d7fb96aea94dabfc9d6a634ab07167f7c912e7f22b2961558288dce8'),
    ('degenerate --fixture counterexample-p1xp1 --relation-degree 12 --cap-matrix 1000000000', 0, '5563dd99343cfd51ff668c9706b56a19dad3736acdb840d28f70d1b2e2a79284'),
    ('degenerate --fixture elliptic-bad --max-degree 10', 2, 'error: resource-cap: matrix cap exceeded reducing degree-10 relations: 1384x423 > 500000'),
    ('degenerate --fixture bott-samelson-m --relation-degree 4', 2, 'error: resource-cap: matrix cap exceeded reducing degree-4 relations: 5138x1820 > 500000'),
    ('check compatibility --fixture bott-samelson-u --subsystem 1;x;y;z', 0, 'a0e151c53e031c730ddb1cb59fa1e005544c5da623fdebf208d95e7af0a7e77d'),
    ('check compatibility --fixture bott-samelson-u --subsystem x;y', 0, '44bf03dc21fe72e7c4a943cd1d32f52d5dfd5a98b7cddfe7acc91c3b7fb66912'),
    ('check compatibility --fixture counterexample-p1xp1 --subsystem 1;x', 0, '19355982cf6b705b8db9fea2858b33741a18f60e2ff1a99f87ab1fc2383f00b9'),
    ('check restriction --fixture bott-samelson-u --restriction-index 1', 0, 'd4f8d58d094b8ebb71871327cae7fd1cf6c2a9714f756654e8ce77673a85dddb'),
    ('check restriction --fixture bott-samelson-u --restriction-index 2', 0, '0127d1a515eab8114dbcc9b4ca366c4269c96ae5730fbc4c0f352900c2cdf58e'),
    ('check restriction --fixture bott-samelson-u --restriction-index 3', 0, '586c19bec2c9c81ae6eb4709ed6158b715403bd6be93a8b95285924a1921376b'),
    ('check restriction --fixture bott-samelson-m --restriction-index 1', 0, '2891d389a5965fa6e9a7412562f543db4d9416dbf3d629be967148d8cc780066'),
    ('check restriction --fixture bott-samelson-m --restriction-index 2', 0, 'b5edd9b54bf2b9fa43e4488986c8843ee56e15d0a167ab802b1de30e440546ff'),
    ('check restriction --fixture bott-samelson-m --restriction-index 3', 0, '51ebf13104f15fd9bf3929b51cf1b152b9071ac211ac00ca8f74d5dcb69c1dd6'),
    ('check restriction --fixture counterexample-p1xp1 --restriction-index 1', 0, '3a92872b39f4695bff4eb3d4fa36bb7329c2fe3f579cceda2a580c20a9e619d4'),
    ('check restriction --fixture counterexample-p1xp1 --restriction-index 2', 0, '83c176ea38398b0507f89a6373bfb44e57038f2f5fe283739b061616e3701e24'),
    ('check restriction --fixture counterexample-p1xp1 --restriction-index 3', 1, 'error: validation: restriction index 3 out of range'),
    ('check saturation --fixture counterexample-p1xp1 --orders 1,0', 1, 'error: validation: no flag member remains to measure saturation against'),
    ('check saturation --fixture counterexample-p1xp1 --orders 1', 0, '8dfeaed6d26def2e2d645da036ba287547b12d69fe465f24fa34617fa8b3070d'),
    ('check saturation --fixture bott-samelson-u --orders 1,0', 0, '2b8d7792f2044a52bc4b63537bd340d7fd1c5aee587451ee4512f16e6f6ae2f6'),
    ('semigroup --fixture bott-samelson-u --max-degree 6 --cap-monomials 300', 2, 'error: resource-cap: monomial cap exceeded closing generators in degree 4: 512 > 300'),
    ('semigroup --fixture bott-samelson-u --max-degree 7 --cap-monomials 2000', 2, 'error: resource-cap: monomial cap exceeded closing generators in degree 7: 2744 > 2000'),
    ('body --fixture counterexample-p1xp1 --max-degree 18446744073709551616', 2, 'error: resource-cap: monomial cap exceeded by the number of degrees: 18446744073709551616 > 2000000'),
    ('nu --input Fp:bott-samelson-u', 0, 'ebee85a640b7e9a21f4aee81a920d2925a3da6a6d28f53e835d5b552f50fd061'),
    ('semigroup --input Fp:bott-samelson-u --max-degree 5', 0, 'e2b161c316fd7ccfb855ce385ceb9a98e61e4c55fa93a213f74a546aba258f24'),
    ('degenerate --input Fp:bott-samelson-u --max-degree 2 --relation-degree 2', 0, 'c0dd9d790dc03ded0ccc72e21e1c1c32c906e38eccf0a42586bccf0e0140bf0d'),
    ('degenerate --input Fp:counterexample-p1xp1', 0, 'eec1c62a2c5aee65fbaf2ebc0677c1c1f4134574a4b2d0361e12f99398b0a1d4'),
    ('body --input Fp:bott-samelson-m', 0, 'dd834ba3543add4743d626210f2f38ddf73ed67cb7c0023c14d93a25aae05936'),
    ('semigroup --input Esc:hirzebruch-trapezoid', 0, 'abfae391180b9b86f5537d651acb7f73264ebf8d09e113b9d26824e7b464fd67'),
    ('degenerate --fixture hirzebruch-trapezoid --cap-matrix 200', 2, 'error: resource-cap: matrix cap exceeded in degree 2: 21x15 > 200'),
    ('degenerate --fixture counterexample-p1xp1 --relation-degree 6 --cap-matrix 2000', 2, 'error: resource-cap: matrix cap exceeded in degree 4: 46x44 > 2000'),
    ('semigroup --fixture hirzebruch-trapezoid --format text', 0, '4dea6ef1a9496033f590bfab1f03350edaf3ab66a6e408e5105cb39a8db4e310'),
    ('body --fixture hirzebruch-trapezoid --format text', 0, '22544b7246d28b25401a25c3a1dcce87d235a3bd0c40d6b0c9b57eddd9bf48ce'),
    ('degenerate --fixture hirzebruch-trapezoid --format text', 0, '4555d49dcdb256ff2df9364ffca174a8a992e96ebd5d3f76b3d2b87c0d561ac8'),
    ('check normality --fixture hirzebruch-trapezoid --format text', 0, 'f01d6c89efdace44d719ee9dfe019fc61e1da4671f19ae39046f6f4b9ab32c1e'),
    ('nu --fixture counterexample-p1xp1 --format text', 0, 'c2afb856835b2b66312e20864f53027980a8cc85775b7cb7ab6d2df09601372d'),
    ('semigroup --fixture counterexample-p1xp1 --format text', 0, 'e99eb22851546d5215b45c053ec9d9c1ea1ed4a87808e110ad196d4771751dd5'),
    ('semigroup --input Gens:elliptic-good', 0, '078509a39afe76fc2afc3e53db56641b963d8fe0955ca0cf276dafbfb8569a69'),
    ('body --input Gens:elliptic-good', 0, '37468a018ea918aa8f41547465d10a1c0d53f8f99617468b8bf400c898d8e8a7'),
    ('check normality --input Gens:elliptic-good', 0, '8dfe5bd4a667aec1f4ae135adff1856f7a667dff2ac940b6ab783000c9cfa154'),
    ('degenerate --input Gens:elliptic-good', 0, '664b1461f190b4e529a2a31f6c4791346f5bc6ba974736937bdffc87073c0b4c'),
    ('semigroup --input Neg:elliptic-good', 0, 'fcf3796015c45de6b9604981abd39df57b5a296c0cc1b252c17a91acc26bf84a'),
    ('body --input Neg:elliptic-good', 0, '2994dd35141f3d6b2e5e5e7bc17258d36c803ca5842a712123b00fa8b741794d'),
    ('check normality --input Neg:elliptic-good', 0, '1378ce286abc2198c2397c843e3d6f30d40ea93d2728a799eab4ef3ef45ea773'),
    ('degenerate --input Neg:elliptic-good', 1, 'error: validation: degenerations need non-negative generator values, got (1, [-1])'),
    ('body --input Flat:bott-samelson-u', 0, '467aebf7bc0aa0a4b68a6c62541a580b1c08d7eece24872ff4a5027167d1eaf6'),
    ('check restriction --input Flat:bott-samelson-u --restriction-index 1', 0, '375a579f372e0bed4f31ac416bd2edfcacce27d10190cb7f93a5e965cfa36ed6'),
    ('semigroup --input Rat:counterexample-p1xp1', 0, '40192dca6667a8cd0d654959743d74077ee646ba6a5d4821667c28c08f35c698'),
    ('body --input Rat:counterexample-p1xp1', 0, '395c19eacf23194936adcf9932a18a961bd746bf586f903dc375728adb15f902'),
    ('check normality --input Rat:counterexample-p1xp1', 0, '2485fefa138a2591d16bf14f5a0090afd243bac1e0151a97727ab87619b42a9d'),
    ('degenerate --input Rat:counterexample-p1xp1 --max-degree 2 --relation-degree 4', 0, '9fa8da87340511c240196a2fd1c32d2095905116ee80768d1561d7c8d8e07b84'),
]


# The job files a line can name as `<edit>:<fixture>`: the fixture's job with
# these keys replaced.
JOB_EDITS = {
    "Fp": {"field": {"Fp": 32003}},
    "Esc": {"description": 'a "quoted" back\\slash,\na newline and \u00e9'},
    # unsorted, with a repeated generator and three decomposable ones
    "Gens": {"semigroup_generators": [[1, 0], [1, 1], [1, 1], [2, 2], [2, 1], [3, 4], [1, 3]]},
    # a negative value coordinate: fine for the semigroup, refused by degenerate
    "Neg": {"semigroup_generators": [[1, 0], [1, -1], [1, 1]], "max_degree": 3},
    # values on the plane y = z: the body is a triangle with affine_dim 2 in
    # 3-space, and its halfspaces hold the equality pair (0, 1, -1), (0, -1, 1)
    "Flat": {"sections": ["1", "x", "y*z", "x*y*z + y^2*z^2"], "max_degree": 3},
    # a reduced basis with rational coefficients whose subduction grows them
    # and whose lifts have denominators other than one
    "Rat": {"sections": ["1 - 1/3*x^2 - 1/21*x^3*y^3", "y + x^2 + 1/7*x^3*y^3",
                         "y^3 + 2/7*x^2*y^2 + 3/7*x^3*y^2",
                         "x - 3*x^2*y + 2*x^2*y^2 + 3*x^3*y^2", "x*y"], "max_degree": 4},
}


def argv_for(line, tmp_path):
    argv = []
    for token in line.split(" "):
        edit, _, name = token.partition(":")
        if edit in JOB_EDITS:
            job = {**jobspec_to_dict(load_fixture(name)), **JOB_EDITS[edit]}
            path = tmp_path / f"{edit}-{name}.json"
            path.write_text(json.dumps(job), encoding="utf-8")
            token = str(path)
        argv.append(token)
    return argv


@pytest.mark.parametrize("line, code, expected", TABLE, ids=[row[0] for row in TABLE])
def test_report_digest(line, code, expected, tmp_path, capsys):
    assert main(argv_for(line, tmp_path)) == code
    captured = capsys.readouterr()
    if code == 0:
        assert not captured.err
        assert hashlib.sha256(captured.out.encode()).hexdigest() == expected
    else:
        assert captured.out == ""
        assert captured.err == expected + "\n"


def test_table_covers_every_command_on_every_fixture():
    lines = {row[0] for row in TABLE}
    commands = ["nu", "body", "semigroup", "degenerate"] + [f"check {c}" for c in CHECKS]
    assert all(f"{c} --fixture {n}" in lines for c in commands for n in fixture_names())
