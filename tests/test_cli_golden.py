"""Golden CLI output: exact stdout bytes and exit codes of a fixed command set.

Every command appears at least once, with the README examples at small
sizes, a config file, --out, and the exit-2/3/4 paths.  The expected CSV is
stored as literals, so any change to the default output of a command, down
to the last digit, fails here.  Tokens in braces are replaced by paths under
the test's temporary directory.
"""

import pytest

from poisson_mac.cli import main

CONFIG = "a1 = 10\na2 = 12\ntau = 0.02\n# comment\n"
BAD_CONFIG = "a1 10\n"

CASES = [
    (
        "solve --a1 10 --a2 12 --lambda0 0.001 --tau 0.02",
        0,
        "# command=solve a1=10 a2=12 lambda0=0.001 tau=0.02 intersections=1\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "10,12,0.001,0.02,4.53858634865,0.213810812593,0.309884568656,BothActive,true\n",
    ),
    (
        "solve --a1 1 --a2 20 --tau 0.02",
        0,
        "# command=solve a1=1 a2=20 lambda0=0.001 tau=0.02 intersections=0\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "1,20,0.001,0.02,6.81588947874,0,0.387011583811,OnlyUser2,true\n",
    ),
    (
        "solve --a1 10 --a2 12 --tau 0.02 --strict",
        0,
        "# command=solve a1=10 a2=12 lambda0=0.001 tau=0.02 intersections=1\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "10,12,0.001,0.02,4.53858634865,0.213810812593,0.309884568656,BothActive,true\n",
    ),
    (
        "solve --a1 10 --a2 30 --tau 0.02",
        0,
        "# command=solve a1=10 a2=30 lambda0=0.001 tau=0.02 intersections=0\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "10,30,0.001,0.02,9.83283962792,0,0.396021224729,OnlyUser2,false\n",
    ),
    (
        "solve --a1 1000 --a2 1000 --tau 1",
        0,
        "# command=solve a1=1000 a2=1000 lambda0=0.001 tau=1 intersections=0\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "1000,1000,0.001,1,0.689199149677,0,0.501479646135,OnlyUser2,false\n",
    ),
    # Out of regime, where the profile kernel runs: a capacity in the
    # thousands, where the profile beats the enumeration (by rounding noise,
    # as TIE_TOL is a few ulps there) and reports its own duty; ~25x the
    # bound; user 1 alone; a background far above both peaks.
    (
        "solve --a1 8850 --a2 4010 --tau 7.92e-05",
        0,
        "# command=solve a1=8850 a2=4010 lambda0=0.001 tau=7.92e-05 intersections=0\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "8850,4010,0.001,7.92e-05,2844.62304245,0.400339442,0,OnlyUser1,false\n",
    ),
    (
        "solve --a1 3 --a2 4 --tau 2.5",
        0,
        "# command=solve a1=3 a2=4 lambda0=0.001 tau=2.5 intersections=0\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "3,4,0.001,2.5,0.273673969531,0,0.503032257785,OnlyUser2,false\n",
    ),
    (
        "solve --a1 20 --a2 5 --tau 0.05",
        0,
        "# command=solve a1=20 a2=5 lambda0=0.001 tau=0.05 intersections=0\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "20,5,0.001,0.05,6.04425417978,0.413127985386,0,OnlyUser1,false\n",
    ),
    (
        "solve --a1 0.5 --a2 0.3 --lambda0 20 --tau 0.1",
        0,
        "# command=solve a1=0.5 a2=0.3 lambda0=20 tau=0.1 intersections=1\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "0.5,0.3,20,0.1,0.000635456524343,0.499187321943,0.489090987405,BothActive,false\n",
    ),
    (
        "solve --a1 10 --a2 12 --tau 0.02 --out {out}",
        0,
        "# command=solve a1=10 a2=12 lambda0=0.001 tau=0.02 intersections=1\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "10,12,0.001,0.02,4.53858634865,0.213810812593,0.309884568656,BothActive,true\n",
    ),
    (
        "solve --config {cfg}",
        0,
        "# command=solve a1=10 a2=12 lambda0=0.001 tau=0.02 intersections=1\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "10,12,0.001,0.02,4.53858634865,0.213810812593,0.309884568656,BothActive,true\n",
    ),
    (
        "solve --config {cfg} --a1 1 --a2 20",
        0,
        "# command=solve a1=1 a2=20 lambda0=0.001 tau=0.02 intersections=0\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "1,20,0.001,0.02,6.81588947874,0,0.387011583811,OnlyUser2,true\n",
    ),
    (
        "solve-miso --peaks1 5,5 --peaks2 6,6 --tau 0.02",
        0,
        "# command=solve-miso peaks1=5:5 peaks2=6:6 lambda0=0.001 tau=0.02\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "10,12,0.001,0.02,4.53858634865,0.213810812593,0.309884568656,BothActive,true\n",
    ),
    (
        "solve-miso --peaks1 1,2,3 --peaks2 4 --lambda0 0.01 --tau 0.05 --strict",
        0,
        "# command=solve-miso peaks1=1:2:3 peaks2=4 lambda0=0.01 tau=0.05\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "6,4,0.01,0.05,2.09109755316,0.35345942909,0.130552267742,BothActive,true\n",
    ),
    (
        "intersections --a1 1 --a2 20 --tau 0.02",
        0,
        "# command=intersections a1=1 a2=20 lambda0=0.001 tau=0.02 reliable=true\n"
        "mu1,mu2,valid\n",
    ),
    (
        "intersections --a1 10 --a2 12 --tau 0.02",
        0,
        "# command=intersections a1=10 a2=12 lambda0=0.001 tau=0.02 reliable=true\n"
        "mu1,mu2,valid\n"
        "0.213810812593,0.309884568656,true\n",
    ),
    (
        "intersections --a1 10 --a2 30 --tau 0.02",
        0,
        "# command=intersections a1=10 a2=30 lambda0=0.001 tau=0.02 reliable=false\n"
        "mu1,mu2,valid\n",
    ),
    (
        "sweep-peak --a1 12.5 --a2 5:30:12.5 --tau 0.02,0.01,0",
        0,
        "# command=sweep-peak a1=12.5 lambda0=0.001 a2=5:30:12.5 tau=0.02,0.01,0\n"
        "a2,tau,mu1,mu2,capacity\n"
        "5,0.02,0.380096017557,0,4.38271403032\n"
        "17.5,0.02,0.15280043127,0.342719693255,6.19864162612\n"
        "30,0.02,0,0.396021224729,9.83283962792\n"
        "5,0.01,0.374147318756,0,4.48748174676\n"
        "17.5,0.01,0.161261573663,0.334859996313,6.44779326387\n"
        "30,0.01,0,0.38231586475,10.4256089238\n"
        "5,0,0.368106631673,0,4.5928985773\n"
        "17.5,0,0.169270939365,0.327290127898,6.70621095962\n"
        "30,0,0,0.36798481189,11.0302350271\n",
    ),
    (
        "sweep-peak --a1 12.5 --a2 1:20 --cells 4 --tau 0.02 --out {out}",
        0,
        "# command=sweep-peak a1=12.5 lambda0=0.001 a2=1:20 tau=0.02\n"
        "a2,tau,mu1,mu2,capacity\n"
        "1,0.02,0.380096017557,0,4.38271403032\n"
        "7.33333333333,0.02,0.365931451902,0.0697592009455,4.4036307221\n"
        "13.6666666667,0.02,0.242432514998,0.290326889663,5.3011062233\n"
        "20,0.02,0.0894173711627,0.36613641172,6.87100082075\n",
    ),
    (
        "sweep-peak --a1 10 --a2 5:10:5 --tau 0",
        0,
        "# command=sweep-peak a1=10 lambda0=0.001 a2=5:10:5 tau=0\n"
        "a2,tau,mu1,mu2,capacity\n"
        "5,0,0.36695335548,0.00815585482558,3.67354638935\n"
        "10,0,0.266188032485,0.266188032485,4.33358119883\n",
    ),
    (
        "sweep-peak --a1 10 --a2 5:15:5 --tau 0.02 --strict",
        0,
        "# command=sweep-peak a1=10 lambda0=0.001 a2=5:15:5 tau=0.02\n"
        "a2,tau,mu1,mu2,capacity\n"
        "5,0.02,0.377779412765,0,3.53865993183\n"
        "10,0.02,0.267432903761,0.267432903761,4.10856439773\n"
        "15,0.02,0.126209064391,0.351369160469,5.30694776035\n",
    ),
    (
        "sweep-region --a1 1:30 --a2 1:30 --cells 12",
        0,
        "# command=sweep-region a1=1:30 a2=1:30 lambda0=0.001 tau=scale:0.8\n"
        "a1,a2,strategy\n"
        "1,1,BothActive\n"
        "1,3.63636363636,OnlyUser2\n"
        "1,6.27272727273,OnlyUser2\n"
        "1,8.90909090909,OnlyUser2\n"
        "1,11.5454545455,OnlyUser2\n"
        "1,14.1818181818,OnlyUser2\n"
        "1,16.8181818182,OnlyUser2\n"
        "1,19.4545454545,OnlyUser2\n"
        "1,22.0909090909,OnlyUser2\n"
        "1,24.7272727273,OnlyUser2\n"
        "1,27.3636363636,OnlyUser2\n"
        "1,30,OnlyUser2\n"
        "3.63636363636,1,OnlyUser1\n"
        "3.63636363636,3.63636363636,BothActive\n"
        "3.63636363636,6.27272727273,BothActive\n"
        "3.63636363636,8.90909090909,OnlyUser2\n"
        "3.63636363636,11.5454545455,OnlyUser2\n"
        "3.63636363636,14.1818181818,OnlyUser2\n"
        "3.63636363636,16.8181818182,OnlyUser2\n"
        "3.63636363636,19.4545454545,OnlyUser2\n"
        "3.63636363636,22.0909090909,OnlyUser2\n"
        "3.63636363636,24.7272727273,OnlyUser2\n"
        "3.63636363636,27.3636363636,OnlyUser2\n"
        "3.63636363636,30,OnlyUser2\n"
        "6.27272727273,1,OnlyUser1\n"
        "6.27272727273,3.63636363636,BothActive\n"
        "6.27272727273,6.27272727273,BothActive\n"
        "6.27272727273,8.90909090909,BothActive\n"
        "6.27272727273,11.5454545455,BothActive\n"
        "6.27272727273,14.1818181818,OnlyUser2\n"
        "6.27272727273,16.8181818182,OnlyUser2\n"
        "6.27272727273,19.4545454545,OnlyUser2\n"
        "6.27272727273,22.0909090909,OnlyUser2\n"
        "6.27272727273,24.7272727273,OnlyUser2\n"
        "6.27272727273,27.3636363636,OnlyUser2\n"
        "6.27272727273,30,OnlyUser2\n"
        "8.90909090909,1,OnlyUser1\n"
        "8.90909090909,3.63636363636,OnlyUser1\n"
        "8.90909090909,6.27272727273,BothActive\n"
        "8.90909090909,8.90909090909,BothActive\n"
        "8.90909090909,11.5454545455,BothActive\n"
        "8.90909090909,14.1818181818,BothActive\n"
        "8.90909090909,16.8181818182,BothActive\n"
        "8.90909090909,19.4545454545,OnlyUser2\n"
        "8.90909090909,22.0909090909,OnlyUser2\n"
        "8.90909090909,24.7272727273,OnlyUser2\n"
        "8.90909090909,27.3636363636,OnlyUser2\n"
        "8.90909090909,30,OnlyUser2\n"
        "11.5454545455,1,OnlyUser1\n"
        "11.5454545455,3.63636363636,OnlyUser1\n"
        "11.5454545455,6.27272727273,BothActive\n"
        "11.5454545455,8.90909090909,BothActive\n"
        "11.5454545455,11.5454545455,BothActive\n"
        "11.5454545455,14.1818181818,BothActive\n"
        "11.5454545455,16.8181818182,BothActive\n"
        "11.5454545455,19.4545454545,BothActive\n"
        "11.5454545455,22.0909090909,OnlyUser2\n"
        "11.5454545455,24.7272727273,OnlyUser2\n"
        "11.5454545455,27.3636363636,OnlyUser2\n"
        "11.5454545455,30,OnlyUser2\n"
        "14.1818181818,1,OnlyUser1\n"
        "14.1818181818,3.63636363636,OnlyUser1\n"
        "14.1818181818,6.27272727273,OnlyUser1\n"
        "14.1818181818,8.90909090909,BothActive\n"
        "14.1818181818,11.5454545455,BothActive\n"
        "14.1818181818,14.1818181818,BothActive\n"
        "14.1818181818,16.8181818182,BothActive\n"
        "14.1818181818,19.4545454545,BothActive\n"
        "14.1818181818,22.0909090909,BothActive\n"
        "14.1818181818,24.7272727273,BothActive\n"
        "14.1818181818,27.3636363636,OnlyUser2\n"
        "14.1818181818,30,OnlyUser2\n"
        "16.8181818182,1,OnlyUser1\n"
        "16.8181818182,3.63636363636,OnlyUser1\n"
        "16.8181818182,6.27272727273,OnlyUser1\n"
        "16.8181818182,8.90909090909,BothActive\n"
        "16.8181818182,11.5454545455,BothActive\n"
        "16.8181818182,14.1818181818,BothActive\n"
        "16.8181818182,16.8181818182,BothActive\n"
        "16.8181818182,19.4545454545,BothActive\n"
        "16.8181818182,22.0909090909,BothActive\n"
        "16.8181818182,24.7272727273,BothActive\n"
        "16.8181818182,27.3636363636,BothActive\n"
        "16.8181818182,30,BothActive\n"
        "19.4545454545,1,OnlyUser1\n"
        "19.4545454545,3.63636363636,OnlyUser1\n"
        "19.4545454545,6.27272727273,OnlyUser1\n"
        "19.4545454545,8.90909090909,OnlyUser1\n"
        "19.4545454545,11.5454545455,BothActive\n"
        "19.4545454545,14.1818181818,BothActive\n"
        "19.4545454545,16.8181818182,BothActive\n"
        "19.4545454545,19.4545454545,BothActive\n"
        "19.4545454545,22.0909090909,BothActive\n"
        "19.4545454545,24.7272727273,BothActive\n"
        "19.4545454545,27.3636363636,BothActive\n"
        "19.4545454545,30,BothActive\n"
        "22.0909090909,1,OnlyUser1\n"
        "22.0909090909,3.63636363636,OnlyUser1\n"
        "22.0909090909,6.27272727273,OnlyUser1\n"
        "22.0909090909,8.90909090909,OnlyUser1\n"
        "22.0909090909,11.5454545455,OnlyUser1\n"
        "22.0909090909,14.1818181818,BothActive\n"
        "22.0909090909,16.8181818182,BothActive\n"
        "22.0909090909,19.4545454545,BothActive\n"
        "22.0909090909,22.0909090909,BothActive\n"
        "22.0909090909,24.7272727273,BothActive\n"
        "22.0909090909,27.3636363636,BothActive\n"
        "22.0909090909,30,BothActive\n"
        "24.7272727273,1,OnlyUser1\n"
        "24.7272727273,3.63636363636,OnlyUser1\n"
        "24.7272727273,6.27272727273,OnlyUser1\n"
        "24.7272727273,8.90909090909,OnlyUser1\n"
        "24.7272727273,11.5454545455,OnlyUser1\n"
        "24.7272727273,14.1818181818,BothActive\n"
        "24.7272727273,16.8181818182,BothActive\n"
        "24.7272727273,19.4545454545,BothActive\n"
        "24.7272727273,22.0909090909,BothActive\n"
        "24.7272727273,24.7272727273,BothActive\n"
        "24.7272727273,27.3636363636,BothActive\n"
        "24.7272727273,30,BothActive\n"
        "27.3636363636,1,OnlyUser1\n"
        "27.3636363636,3.63636363636,OnlyUser1\n"
        "27.3636363636,6.27272727273,OnlyUser1\n"
        "27.3636363636,8.90909090909,OnlyUser1\n"
        "27.3636363636,11.5454545455,OnlyUser1\n"
        "27.3636363636,14.1818181818,OnlyUser1\n"
        "27.3636363636,16.8181818182,BothActive\n"
        "27.3636363636,19.4545454545,BothActive\n"
        "27.3636363636,22.0909090909,BothActive\n"
        "27.3636363636,24.7272727273,BothActive\n"
        "27.3636363636,27.3636363636,BothActive\n"
        "27.3636363636,30,BothActive\n"
        "30,1,OnlyUser1\n"
        "30,3.63636363636,OnlyUser1\n"
        "30,6.27272727273,OnlyUser1\n"
        "30,8.90909090909,OnlyUser1\n"
        "30,11.5454545455,OnlyUser1\n"
        "30,14.1818181818,OnlyUser1\n"
        "30,16.8181818182,BothActive\n"
        "30,19.4545454545,BothActive\n"
        "30,22.0909090909,BothActive\n"
        "30,24.7272727273,BothActive\n"
        "30,27.3636363636,BothActive\n"
        "30,30,BothActive\n",
    ),
    (
        "sweep-region --a1 1:21:10 --a2 1:21:10 --lambda0 0.01 --tau 0.01",
        0,
        "# command=sweep-region a1=1:21:10 a2=1:21:10 lambda0=0.01 tau=0.01\n"
        "a1,a2,strategy\n"
        "1,1,BothActive\n"
        "1,11,OnlyUser2\n"
        "1,21,OnlyUser2\n"
        "11,1,OnlyUser1\n"
        "11,11,BothActive\n"
        "11,21,BothActive\n"
        "21,1,OnlyUser1\n"
        "21,11,BothActive\n"
        "21,21,BothActive\n",
    ),
    (
        "sweep-region --a1 2:8:3 --a2 1:9:4 --tau-scale 0.5 --strict",
        0,
        "# command=sweep-region a1=2:8:3 a2=1:9:4 lambda0=0.001 tau=scale:0.5\n"
        "a1,a2,strategy\n"
        "2,1,OnlyUser1\n"
        "2,5,OnlyUser2\n"
        "2,9,OnlyUser2\n"
        "5,1,OnlyUser1\n"
        "5,5,BothActive\n"
        "5,9,BothActive\n"
        "8,1,OnlyUser1\n"
        "8,5,BothActive\n"
        "8,9,BothActive\n",
    ),
    (
        "sweep-region --config {cfg}",
        0,
        "# command=sweep-region a1=10 a2=12 lambda0=0.001 tau=0.02\n"
        "a1,a2,strategy\n"
        "10,12,BothActive\n",
    ),
    (
        "symmetric --a 10 --tau 0.02",
        0,
        "# command=symmetric a=10 lambda0=0.001 tau=0.02\n"
        "a,lambda0,tau,flip_level,peak_threshold,axis_half_sum,diagonal_half_sum,fixed_point,capacity,schur_mode\n"
        "10,0.001,0.02,9.50995650007,8.57256676439,0.000149242236509,0.000149244255291,0.267432903761,4.10856439773,SplitRegions\n",
    ),
    (
        "symmetric --a 3 --lambda0 0.01 --tau 0.1 --strict",
        0,
        "# command=symmetric a=3 lambda0=0.01 tau=0.1\n"
        "a,lambda0,tau,flip_level,peak_threshold,axis_half_sum,diagonal_half_sum,fixed_point,capacity,schur_mode\n"
        "3,0.01,0.1,6.69913695618,2.89048684211,0.000445999148108,0.000446024928691,0.272571065073,1.17232900786,SplitRegions\n",
    ),
    (
        "converge --a1 10 --a2 12 --taus 1e-3,1e-4,1e-5",
        0,
        "# command=converge a1=10 a2=12 lambda0=0.001 taus=1e-3,1e-4,1e-5\n"
        "tau,capacity,cont_capacity,gap,mu1,mu2\n"
        "0.001,4.79737692555,4.81137429765,0.0139973721036,0.218857455666,0.303189096204\n"
        "0.0001,4.80997287026,4.81137429765,0.00140142738987,0.219085696801,0.302879894498\n"
        "1e-05,4.81123413801,4.81137429765,0.000140159636769,0.219108466122,0.302849012375\n",
    ),
    (
        "converge --a1 10 --a2 12 --taus 1e-3 --strict",
        0,
        "# command=converge a1=10 a2=12 lambda0=0.001 taus=1e-3\n"
        "tau,capacity,cont_capacity,gap,mu1,mu2\n"
        "0.001,4.79737692555,4.81137429765,0.0139973721036,0.218857455666,0.303189096204\n",
    ),
    (
        "converge --config {cfg} --taus 1e-3",
        0,
        "# command=converge a1=10 a2=12 lambda0=0.001 taus=1e-3\n"
        "tau,capacity,cont_capacity,gap,mu1,mu2\n"
        "0.001,4.79737692555,4.81137429765,0.0139973721036,0.218857455666,0.303189096204\n",
    ),
    (
        "solve --a1 10 --tau 0.02",
        2,
        "",
    ),
    (
        "solve --a1 -3 --a2 12 --tau 0.02",
        2,
        "",
    ),
    (
        "solve --a1 inf --a2 12 --tau 0.02",
        2,
        "",
    ),
    (
        "solve --config {missing}",
        2,
        "",
    ),
    (
        "solve --config {badcfg}",
        2,
        "",
    ),
    (
        "solve-miso --peaks1 5,-1 --peaks2 6 --tau 0.02",
        2,
        "",
    ),
    (
        "sweep-peak --a1 10 --a2 5:15:5 --tau 0.02,inf",
        2,
        "",
    ),
    (
        "sweep-region --a1 1:30 --a2 1:30",
        2,
        "",
    ),
    (
        "sweep-region --a1 1:30:0 --a2 1:30:10",
        2,
        "",
    ),
    (
        "sweep-region --a1 1:2:3:4 --a2 1:30:10",
        2,
        "",
    ),
    (
        "sweep-region --a1 1:inf --a2 1:3 --cells 3",
        2,
        "",
    ),
    (
        "symmetric --a 0 --tau 0.02",
        2,
        "",
    ),
    (
        "converge --a1 10 --a2 12 --taus 1e-3,0",
        2,
        "",
    ),
    (
        "solve --a1 10 --a2 30 --tau 0.02 --strict",
        3,
        "",
    ),
    (
        "solve-miso --peaks1 10,10 --peaks2 10 --tau 0.03 --strict",
        3,
        "",
    ),
    (
        "intersections --a1 10 --a2 30 --tau 0.02 --strict",
        3,
        "",
    ),
    (
        "sweep-peak --a1 20 --a2 20:25:5 --tau 0.05 --strict",
        3,
        "",
    ),
    (
        "symmetric --a 20 --tau 0.02 --strict",
        3,
        "",
    ),
    (
        "converge --a1 10 --a2 12 --taus 0.02,0.05 --strict",
        3,
        "",
    ),
    (
        "intersections --a1 1000 --a2 1000 --tau 1",
        4,
        "",
    ),
    # Kernel cases: equal peaks in the continuous reference, whose optimum
    # lies on the diagonal; a converge row on the same diagonal; and a
    # threshold search that runs out to a ~ 128.6.
    (
        "sweep-peak --a1 10 --a2 10 --tau 0",
        0,
        "# command=sweep-peak a1=10 lambda0=0.001 a2=10 tau=0\n"
        "a2,tau,mu1,mu2,capacity\n"
        "10,0,0.266188032485,0.266188032485,4.33358119883\n",
    ),
    # Continuous rows solved row by row: several rows, a 0 given twice
    # around a finite tau, a later row below its rounding floor (rate
    # 1.73e-18, floor 5.62e-17), and a first row's numeric failure, which
    # comes before the second row's validation error (a2 = -1).
    (
        "sweep-peak --a1 20 --a2 5:40 --cells 7 --tau 0",
        0,
        "# command=sweep-peak a1=20 lambda0=0.001 a2=5:40 tau=0\n"
        "a2,tau,mu1,mu2,capacity\n"
        "5,0,0.368030054757,0,7.3516970624\n"
        "10.8333333333,0,0.359690638842,0.0506928103248,7.36974309557\n"
        "16.6666666667,0,0.30277552086,0.219015540532,8.02196122805\n"
        "22.5,0,0.236996167132,0.290818516089,9.24940517589\n"
        "28.3333333333,0,0.164935883148,0.32891314377,10.8307352123\n"
        "34.1666666667,0,0.08817041028,0.351834420882,12.6686404941\n"
        "40,0,0.00772838920504,0.366821518976,14.7095852548\n",
    ),
    (
        "sweep-peak --a1 20 --a2 5:40 --cells 3 --tau 0,0.01,0",
        0,
        "# command=sweep-peak a1=20 lambda0=0.001 a2=5:40 tau=0,0.01,0\n"
        "a2,tau,mu1,mu2,capacity\n"
        "5,0,0.368030054757,0,7.3516970624\n"
        "22.5,0,0.236996167132,0.290818516089,9.24940517589\n"
        "40,0,0.00772838920504,0.366821518976,14.7095852548\n"
        "5,0.01,0.377647936045,0,7.08227845297\n"
        "22.5,0.01,0.23428195643,0.295769619955,8.74122213625\n"
        "40,0.01,0,0.386935456322,13.637106683\n"
        "5,0,0.368030054757,0,7.3516970624\n"
        "22.5,0,0.236996167132,0.290818516089,9.24940517589\n"
        "40,0,0.00772838920504,0.366821518976,14.7095852548\n",
    ),
    (
        "sweep-peak --a1 1e-20 --a2 1:1e-10 --cells 2 --tau 0",
        4,
        "",
    ),
    (
        "sweep-peak --a1 1e-20 --a2=1e-20:-1 --cells 2 --tau 0",
        4,
        "",
    ),
    (
        "converge --a1 12.5 --a2 12.5 --taus 1e-3",
        0,
        "# command=converge a1=12.5 a2=12.5 lambda0=0.001 taus=1e-3\n"
        "tau,capacity,cont_capacity,gap,mu1,mu2\n"
        "0.001,5.40006144217,5.418061065,0.0179996228236,0.266222849193,0.266222849193\n",
    ),
    (
        "symmetric --a 2 --tau 0.001",
        0,
        "# command=symmetric a=2 lambda0=0.001 tau=0.001\n"
        "a,lambda0,tau,flip_level,peak_threshold,axis_half_sum,diagonal_half_sum,fixed_point,capacity,schur_mode\n"
        "2,0.001,0.001,698.380529117,128.578379433,nan,nan,0.266931787676,0.863268822479,GloballySchurConcave\n",
    ),
    # The scalar search kernels: a peak below its threshold (no boundary),
    # a threshold search that finds no sign change below its cap, and a
    # root of g - f whose mu2 leaves the unit interval.  A seeded search of
    # 200,000 channels found none with two in-box roots.
    (
        "symmetric --a 1 --tau 0.02",
        0,
        "# command=symmetric a=1 lambda0=0.001 tau=0.02\n"
        "a,lambda0,tau,flip_level,peak_threshold,axis_half_sum,diagonal_half_sum,fixed_point,capacity,schur_mode\n"
        "1,0.001,0.02,73.8560229443,8.57256676439,nan,nan,0.267813194368,0.427963808019,GloballySchurConcave\n",
    ),
    (
        "symmetric --a 1 --lambda0 0.1 --tau 0.1",
        0,
        "# command=symmetric a=1 lambda0=0.1 tau=0.1\n"
        "a,lambda0,tau,flip_level,peak_threshold,axis_half_sum,diagonal_half_sum,fixed_point,capacity,schur_mode\n"
        "1,0.1,0.1,14.179983181,inf,nan,nan,0.317074308285,0.309943152432,GloballySchurConcave\n",
    ),
    (
        "intersections --a1 1 --a2 0.5 --lambda0 0.001 --tau 0.23089513009991516",
        0,
        "# command=intersections a1=1 a2=0.5 lambda0=0.001 tau=0.2308951301 reliable=true\n"
        "mu1,mu2,valid\n"
        "0.383037731088,0,false\n",
    ),
    # Rates that are rounding noise around zero: one below zero never wins.
    # The interior rate is -4.28e-20, so user 2 alone at +4.28e-20 wins, in
    # one solve and in a batch.
    (
        "solve --a1 1.1012280661550147e-12 --a2 1.1012280661550147e-12"
        " --lambda0 1.157995945307093e-05 --tau 1.5085142237072597e-07",
        0,
        "# command=solve a1=1.10122806616e-12 a2=1.10122806616e-12 lambda0=1.15799594531e-05"
        " tau=1.50851422371e-07 intersections=1\n"
        "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok\n"
        "1.10122806616e-12,1.10122806616e-12,1.15799594531e-05,1.50851422371e-07,4.28391620975e-20,0,"
        "0.196406624734,OnlyUser2,true\n",
    ),
    (
        "sweep-peak --a1 1.1012280661550147e-12 --a2 1.1012280661550147e-12"
        " --lambda0 1.157995945307093e-05 --tau 1.5085142237072597e-07",
        0,
        "# command=sweep-peak a1=1.10122806616e-12 lambda0=1.15799594531e-05 a2=1.1012280661550147e-12"
        " tau=1.5085142237072597e-07\n"
        "a2,tau,mu1,mu2,capacity\n"
        "1.10122806616e-12,1.50851422371e-07,0,0.196406624734,4.28391620975e-20\n",
    ),
]


@pytest.mark.parametrize("argv, code, expected", CASES, ids=[case[0] for case in CASES])
def test_golden_output(tmp_path, capsys, argv, code, expected):
    (tmp_path / "run.cfg").write_text(CONFIG, encoding="utf-8")
    (tmp_path / "bad.cfg").write_text(BAD_CONFIG, encoding="utf-8")
    out = tmp_path / "out.csv"
    paths = {
        "cfg": tmp_path / "run.cfg",
        "badcfg": tmp_path / "bad.cfg",
        "missing": tmp_path / "missing.cfg",
        "out": out,
    }
    assert main([arg.format(**paths) for arg in argv.split()]) == code
    stdout = capsys.readouterr().out
    if "{out}" in argv:
        assert stdout == ""
        stdout = out.read_text(encoding="utf-8")
    assert stdout == expected
